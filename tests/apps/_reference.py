"""Reference implementations for the trace-kernel equality tests.

This is the per-group cell-list loop of ``pair_counts``, the
tuple-board ``_bounded_dfs`` / ``_annotated_dfs`` with their
``_Annotated`` nodes, and the recursive ``solve_queens`` that preceded
the cell-block distance blocks in :mod:`repro.apps.gromos`, the one
mutable board and tuple skeleton in :mod:`repro.apps.idastar` and the
level-by-level counter in :mod:`repro.apps.nqueens`, copied verbatim.
``tests/apps/test_reference_equality.py`` runs this module and the real
one on the same inputs and asserts that every pair count and every
search result is equal.  Nothing outside the tests imports it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.molecule import Molecule
from repro.apps.puzzle import SIDE, _GOAL_POS, _MOVES


def pair_counts(mol: Molecule, cutoff: float, periodic: bool = True) -> np.ndarray:
    """Atoms within ``cutoff`` of each charge-group centroid.

    This is the per-group nonbonded work measure: a group's interaction
    list length.  Computed with a uniform cell list (cell edge >=
    cutoff) — the same data structure an MD code uses.  With
    ``periodic`` (the default, as in a real solvated MD box) distances
    use the minimum-image convention, so there is no artificial density
    falloff at the box faces.
    """
    centers = mol.group_centers()
    pos = mol.positions
    box = mol.box
    ncell = max(1, int(box / cutoff))
    if periodic and ncell < 3:
        ncell = 1  # degenerate box: brute force over everything
    cell_edge = box / ncell
    atom_cells = np.floor(pos / cell_edge).astype(np.int64).clip(0, ncell - 1)
    atom_key = (atom_cells[:, 0] * ncell + atom_cells[:, 1]) * ncell + atom_cells[:, 2]
    order = np.argsort(atom_key, kind="stable")
    sorted_keys = atom_key[order]
    sorted_pos = pos[order]
    # bucket boundaries per cell key
    starts = np.searchsorted(sorted_keys, np.arange(ncell ** 3))
    ends = np.searchsorted(sorted_keys, np.arange(ncell ** 3), side="right")

    counts = np.zeros(centers.shape[0], dtype=np.int64)
    c2 = cutoff * cutoff
    ccell = np.floor(centers / cell_edge).astype(np.int64).clip(0, ncell - 1)

    def cell_range(c: int) -> list[int]:
        if periodic:
            # wrapped, de-duplicated (ncell < 3 would otherwise visit a
            # cell more than once and double-count)
            return sorted({(c + d) % ncell for d in (-1, 0, 1)})
        return list(range(max(c - 1, 0), min(c + 2, ncell)))

    for g in range(centers.shape[0]):
        cx, cy, cz = ccell[g]
        total = 0
        for x in cell_range(cx):
            for y in cell_range(cy):
                for z in cell_range(cz):
                    key = (x * ncell + y) * ncell + z
                    s, e = starts[key], ends[key]
                    if s == e:
                        continue
                    d = sorted_pos[s:e] - centers[g]
                    if periodic:
                        d -= box * np.round(d / box)
                    total += int(np.count_nonzero(
                        (d * d).sum(axis=1) <= c2
                    ))
        counts[g] = total
    return counts


def _bounded_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                 prev_blank: int) -> tuple[int, float, bool]:
    """Cost-bounded DFS.  Returns (min_exceed, visits, found).

    ``min_exceed`` is the smallest f that crossed the threshold (the
    next iteration's threshold candidate), or a large sentinel if the
    subtree was exhausted.
    """
    visits = 1
    if h == 0:
        return threshold, visits, True
    min_exceed = 1 << 30
    blank = board.index(0)
    lst = list(board)
    for dest in _MOVES[blank]:
        if dest == prev_blank:
            continue
        tile = lst[dest]
        gr, gc = _GOAL_POS[tile]
        # incremental Manhattan update for sliding `tile` into `blank`
        dr, dc = divmod(dest, SIDE)
        br, bc = divmod(blank, SIDE)
        old_d = abs(dr - gr) + abs(dc - gc)
        new_d = abs(br - gr) + abs(bc - gc)
        nh = h - old_d + new_d
        nf = g + 1 + nh
        if nf > threshold:
            if nf < min_exceed:
                min_exceed = nf
            continue
        lst[blank], lst[dest] = tile, 0
        sub_exceed, sub_visits, found = _bounded_dfs(
            tuple(lst), g + 1, nh, threshold, blank
        )
        lst[dest], lst[blank] = tile, 0
        visits += sub_visits
        if found:
            return threshold, visits, True
        if sub_exceed < min_exceed:
            min_exceed = sub_exceed
    return min_exceed, visits, False


class _Annotated:
    """A shallow annotated node of one iteration's search tree."""

    __slots__ = ("visits", "children", "exceed", "found")

    def __init__(self) -> None:
        self.visits = 1
        self.children: Optional[list["_Annotated"]] = None
        self.exceed = 1 << 30
        self.found = False


def _annotated_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                   prev_blank: int, depth_budget: int,
                   split_budget: int) -> _Annotated:
    """Cost-bounded DFS that keeps per-child subtree sizes down to
    ``depth_budget`` plies (one pass; below the budget it degenerates to
    the plain counting DFS)."""
    node = _Annotated()
    if h == 0:
        node.exceed = threshold
        node.found = True
        return node
    blank = board.index(0)
    lst = list(board)
    children: list[_Annotated] = []
    for dest in _MOVES[blank]:
        if dest == prev_blank:
            continue
        tile = lst[dest]
        gr, gc = _GOAL_POS[tile]
        dr, dc = divmod(dest, SIDE)
        br, bc = divmod(blank, SIDE)
        nh = h - (abs(dr - gr) + abs(dc - gc)) + (abs(br - gr) + abs(bc - gc))
        nf = g + 1 + nh
        if nf > threshold:
            if nf < node.exceed:
                node.exceed = nf
            continue
        lst[blank], lst[dest] = tile, 0
        child_board = tuple(lst)
        lst[dest], lst[blank] = tile, 0
        if depth_budget > 1:
            child = _annotated_dfs(child_board, g + 1, nh, threshold, blank,
                                   depth_budget - 1, split_budget)
        else:
            child = _Annotated()
            child.exceed, child.visits, child.found = _bounded_dfs(
                child_board, g + 1, nh, threshold, blank
            )
        children.append(child)
        node.visits += child.visits
        node.found = node.found or child.found
        if child.exceed < node.exceed:
            node.exceed = child.exceed
        if node.found:
            break
    # memory guard: a subtree at or below the split budget becomes one
    # task anyway, so its internal annotation is dead weight — dropping
    # it here keeps the retained skeleton at O(total_visits / budget)
    # nodes instead of O(total_visits)
    node.children = None if node.visits <= split_budget else children
    return node


def solve_queens(n: int, cols: int = 0, d1: int = 0, d2: int = 0) -> tuple[int, int]:
    """Count solutions and node visits of the subtree rooted at a partial
    placement (bitmask state).  Returns ``(solutions, visits)``."""
    full = (1 << n) - 1
    sols = 0
    visits = 0

    def rec(c: int, l: int, r: int) -> None:
        nonlocal sols, visits
        visits += 1
        if c == full:
            sols += 1
            return
        free = full & ~(c | l | r)
        while free:
            bit = free & -free
            free ^= bit
            rec(c | bit, ((l | bit) << 1) & full, (r | bit) >> 1)

    rec(cols, d1, d2)
    return sols, visits
