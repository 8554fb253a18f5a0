"""Parallel IDA* search on the 15-puzzle — the paper's second application.

"Iterative deepening A* (IDA*) search is a good example of parallel
search techniques.  The sample problem is the 15-puzzle with three
different configurations.  The grain size may vary substantially, since
it dynamically depends on the currently estimated cost.  Also,
synchronization at each iteration reduces the effective parallelism."

Structure of the generated trace (one *wave* per IDA* iteration):

* a **driver task**, pinned to rank 0, re-expands the search root for
  the iteration.  It is sequential and pinned: this is the per-
  iteration synchronization bottleneck the paper blames for IDA*'s low
  efficiencies.  The next iteration's driver is a cross-wave child of
  the current one, so iterations are separated by a global barrier.
* **dynamically split search tasks**: a task owns a subtree of the
  cost-bounded (``f = g + h <= threshold``) search tree.  If the
  subtree is larger than ``split_budget`` node visits, the task acts as
  an *expander* — it spawns one child task per successor and does only
  the expansion work itself; otherwise it searches its subtree to
  exhaustion.  This is the recursive, on-demand task generation a real
  parallel IDA* uses ("the number of tasks generated ... are
  unpredictable"), and it bounds the task grain near ``split_budget``
  regardless of how lopsided the search tree is.

The search is *real*: thresholds, spawn structure and visit counts come
from actually running IDA* with the Manhattan heuristic.  Instances are
random-walk configurations (see DESIGN.md on the substitution for
Korf's instances); config #1 < #2 < #3 in difficulty, mirroring the
paper's three configurations.

Each iteration's cost-bounded search is counted in numpy, depth-first
in slices: a step makes every move of at most ``_SLICE_NODES`` nodes of
one depth, and their children come out in DFS order.  Once every slice
below a slice is done, the slice's nodes sum their children's visits
and take the least f that crossed the threshold.  The first goal a step
reaches drops every node after it in DFS order.  So visits, exceeds and
the early exit on the goal are exactly those of a recursive DFS, with
one Python frame for the whole search instead of one per ply.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace
from .puzzle import SIDE, _GOAL_POS, _MOVES, manhattan, random_walk_instance

__all__ = ["IDAStarConfig", "PAPER_CONFIGS", "idastar_trace", "ida_star_sequential"]

#: seconds of simulated CPU per search node.  Calibrated so the three
#: configs' sequential times land in the paper's ballpark (about 7 s /
#: 32 s / 66 s; the paper's configs are roughly 10 s / 30 s / 150 s).
SEC_PER_VISIT = 6e-6

#: never split deeper than this many plies below the iteration root —
#: beyond it a subtree is searched in one task even if it exceeds the
#: budget (runaway fragmentation guard)
SPLIT_DEPTH_LIMIT = 28

#: ``_DIST[tile][cell]``: Manhattan distance of ``tile`` on ``cell`` from
#: its goal cell
_DIST = tuple(
    tuple(abs(r - gr) + abs(c - gc)
          for r, c in (divmod(cell, SIDE) for cell in range(SIDE * SIDE)))
    for gr, gc in (_GOAL_POS[tile] for tile in range(SIDE * SIDE))
)

#: the exceed of a subtree that crossed no threshold
_INF = 1 << 30

#: most nodes of one depth the search expands in one step
_SLICE_NODES = 1 << 11

_CELLS = SIDE * SIDE

#: a node's *key*, ``blank * 17 + prev_blank + 1``, fixes the moves it
#: may make; a *move* slides the tile on ``dest`` into the blank on
#: ``blank`` and is numbered ``blank * 16 + dest``; move ``_PAD`` is a
#: placeholder that every threshold prunes
_KEYS = _CELLS * (_CELLS + 1)
_PAD = _CELLS * _CELLS


def _move_tables():
    """``(_NEXT, _SHIFT, _DH, _CHILD_KEY, _SLIDE)``, built from ``_MOVES``
    and ``_DIST``."""
    nxt = np.full((4, _KEYS), _PAD, np.int64)
    shift = np.zeros(_PAD + 1, np.uint64)
    dh = np.full((_PAD + 1, _CELLS), _INF, np.int32)
    child_key = np.zeros((_PAD + 1, _CELLS), np.int32)
    slide = np.zeros((_PAD + 1, _CELLS), np.uint64)
    tiles = np.arange(_CELLS, dtype=np.uint64)
    for blank, dests in enumerate(_MOVES):
        for dest in dests:
            move = blank * _CELLS + dest
            shift[move] = 4 * dest
            dh[move] = [dist[blank] - dist[dest] for dist in _DIST]
            child_key[move] = dest * (_CELLS + 1) + blank + 1
            slide[move] = tiles << np.uint64(4 * dest) | tiles << np.uint64(4 * blank)
        for prev in range(-1, _CELLS):
            moves = [blank * _CELLS + d for d in dests if d != prev]
            nxt[:len(moves), blank * (_CELLS + 1) + prev + 1] = moves
    return nxt, shift, dh, child_key, slide


#: ``_NEXT[slot, key]``: a node's moves, in ``_MOVES`` order without the
#: one that undoes its last, padded with ``_PAD``; ``_SHIFT[move]``: the
#: bit offset of ``dest``'s nibble in a packed board.  Indexed by
#: ``(move, tile)``, for ``tile`` on ``dest``: the change in h
#: (``_DH``), the key of the node the move makes (``_CHILD_KEY``), and
#: the XOR that makes it on a packed board (``_SLIDE``)
_NEXT, _SHIFT, _DH, _CHILD_KEY, _SLIDE = _move_tables()


@dataclass(frozen=True)
class IDAStarConfig:
    """One 15-puzzle workload (a random-walk instance + task grain)."""

    walk_steps: int
    seed: int
    #: subtree size (in node visits) above which a task splits
    split_budget: int = 400
    max_iterations: int = 40

    def __post_init__(self) -> None:
        if self.split_budget < 1:
            raise ValueError("split_budget must be >= 1")

    def board(self) -> tuple[int, ...]:
        return random_walk_instance(self.walk_steps, self.seed)


#: the three configurations standing in for the paper's config #1..#3
#: (instance difficulty approximately 1.1M / 5.4M / 11M search nodes,
#: solved at depth 46 / 44 / 50, each in 8 iterations)
PAPER_CONFIGS: dict[int, IDAStarConfig] = {
    1: IDAStarConfig(walk_steps=56, seed=23, split_budget=400),
    2: IDAStarConfig(walk_steps=64, seed=35, split_budget=400),
    3: IDAStarConfig(walk_steps=64, seed=5, split_budget=400),
}


#: one iteration's search tree, as the annotated search returns it:
#: ``(visits, exceed, found, children)``, where ``children`` lists the
#: successors' skeletons only for a subtree above the split budget and is
#: ``None`` otherwise
_Skeleton = tuple[int, int, bool, Optional[list["_Skeleton"]]]


class _Arena:
    """One search's memory, given out and taken back in stack order from
    anonymous mappings that are unmapped when the search ends.  Levels
    from the heap left their freed memory in it, and the process's peak
    carried that into every later phase."""

    __slots__ = ("chunks", "tops")

    #: smallest mapping
    CHUNK_BYTES = 1 << 20

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.tops: list[int] = []

    def take(self, nbytes: int) -> tuple[tuple[int, int], np.ndarray]:
        """``(mark, block)``: an 8-byte aligned block of ``nbytes``, and
        the mark that gives it (and every later block) back."""
        padded = -(-nbytes // 8) * 8
        if not self.chunks or self.tops[-1] + padded > len(self.chunks[-1]):
            size = max(padded, self.CHUNK_BYTES)
            self.chunks.append(np.frombuffer(mmap.mmap(-1, size), np.uint8))
            self.tops.append(0)
        start = self.tops[-1]
        self.tops[-1] = start + padded
        return (len(self.chunks) - 1, start), self.chunks[-1][start:start + nbytes]

    def give_back(self, mark: tuple[int, int]) -> None:
        chunk, start = mark
        del self.chunks[chunk + 1:], self.tops[chunk + 1:]
        self.tops[chunk] = start


class _Level:
    """The nodes of one depth on the search stack: the children of one
    slice of the level below, in DFS order.

    Nodes ``[0, start)`` are done, the slice ``[start, stop)`` waits for
    the level above it, and ``[stop, len)`` is not expanded yet.  A node
    is its board (16 nibbles), its key, its h and the index of its
    parent in the slice below; its subtree's visits and exceed are
    final once it is done.  ``found``: the level ends at a goal or at a
    goal's ancestor.  ``kids[i]``: node i's children's skeletons, kept
    for the nodes that split.
    """

    __slots__ = ("mark", "board", "visits", "key", "h", "parent", "exceed",
                 "start", "stop", "found", "kids")

    def __init__(self, arena: _Arena, n: int) -> None:
        self.mark, block = arena.take(32 * n)
        self.board = block[:8 * n].view(np.uint64)
        self.visits = block[8 * n:16 * n].view(np.int64)
        self.key, self.h, self.parent, self.exceed = (
            block[16 * n:].view(np.int32).reshape(4, n))
        self.visits.fill(1)
        self.start = self.stop = 0
        self.found = False
        self.kids: dict[int, list[_Skeleton]] = {}

    def __len__(self) -> int:
        return len(self.h)

    def cut(self, n: int) -> None:
        """Keep the first ``n`` nodes, the last of which is a goal or
        a goal's ancestor."""
        self.board, self.visits = self.board[:n], self.visits[:n]
        self.key, self.h, self.parent, self.exceed = (
            self.key[:n], self.h[:n], self.parent[:n], self.exceed[:n])
        self.stop = min(self.stop, n)
        self.found = True


class _Scratch:
    """A step's arrays, in the search's arena: ``(4, slice)`` per move
    slot, and one entry per child."""

    __slots__ = ("move", "tile", "index", "f", "keep", "keep_t", "rows",
                 "picked", "slid")

    def __init__(self, arena: _Arena) -> None:
        size = 4 * _SLICE_NODES

        def buffer(dtype):
            return arena.take(size * np.dtype(dtype).itemsize)[1].view(dtype)

        self.move = buffer(np.int64)
        self.tile = buffer(np.uint64)
        self.index = buffer(np.int64)
        self.f = buffer(np.int32)
        self.keep = buffer(bool)
        self.keep_t = buffer(bool).reshape(_SLICE_NODES, 4)
        self.rows = buffer(np.int64)
        self.picked = buffer(np.int64)
        self.slid = buffer(np.uint64)


def _search(board: tuple[int, ...], g: int, h: int, threshold: int,
            prev_blank: int, depth_budget: int,
            split_budget: int) -> _Skeleton:
    """The cost-bounded DFS below ``board``, whose own f is not tested.

    Keeps the children of the nodes fewer than ``depth_budget`` plies
    down whose subtree has more than ``split_budget`` visits.  Levels
    wait on a stack, the newest on top; each step expands the next
    slice of the top level, at most ``_SLICE_NODES`` nodes, and pushes
    its children.  A level whose slices are all done is folded into
    the slice below it.
    """
    if h == 0:
        return 1, threshold, True, None
    arena = _Arena()
    scratch = _Scratch(arena)
    root = _Level(arena, 1)
    root.board[0] = sum(tile << 4 * cell for cell, tile in enumerate(board))
    root.key[0] = board.index(0) * (_CELLS + 1) + prev_blank + 1
    root.h[0] = h
    stack = [root]
    while True:
        level = stack[-1]
        if level.stop < len(level):
            level.start = level.stop
            level.stop = min(level.start + _SLICE_NODES, len(level))
            children = _expand(level, g + len(stack), threshold, scratch,
                               arena)
            if children is not None:
                stack.append(children)
                if children.found:
                    _cut(stack)
            continue
        stack.pop()
        if not stack:
            return (int(level.visits[0]), int(level.exceed[0]),
                    level.found, level.kids.get(0))
        _fold(level, stack[-1], len(stack) - 1 < depth_budget, split_budget,
              scratch)
        arena.give_back(level.mark)


def _expand(level: _Level, g: int, threshold: int, scratch: _Scratch,
            arena: _Arena) -> Optional[_Level]:
    """Make every move of ``level``'s slice, whose children are ``g``
    plies deep.  Sets the slice's exceeds to its pruned moves' least f;
    returns the children within the threshold, up to the first goal,
    as a level (``None`` if there is none)."""
    s = slice(level.start, level.stop)
    board, key = level.board[s], level.key[s]
    k = len(key)
    # (4, k) views of the scratch buffers, one row per move slot; "clip"
    # lets take() write into them (every index is in range)
    move = scratch.move[:4 * k].reshape(4, k)
    _NEXT.take(key, axis=1, out=move, mode="clip")
    tile = scratch.tile[:4 * k].reshape(4, k)
    _SHIFT.take(move, out=tile, mode="clip")
    np.right_shift(board, tile, out=tile)
    tile &= 15
    index = scratch.index[:4 * k].reshape(4, k)
    np.left_shift(move, 4, out=index)
    index |= tile.view(np.int64)
    f = scratch.f[:4 * k].reshape(4, k)
    _DH.take(index, out=f, mode="clip")
    f += level.h[s]
    f += g
    keep = scratch.keep[:4 * k].reshape(4, k)
    np.less_equal(f, threshold, out=keep)
    # a goal is the last node of its level, and a leaf
    goal = level.found and level.stop == len(level)
    if goal:
        keep[:, -1] = False
    # the kept moves in DFS order: by node, then by slot
    keep_t = scratch.keep_t[:k]
    np.copyto(keep_t, keep.T)
    kept = keep_t.ravel().nonzero()[0]
    n = len(kept)
    if n:
        # kept is node * 4 + slot; make it slot * k + node, an index
        # into the (4, k) arrays
        rows = np.right_shift(kept, 2, out=scratch.rows[:n])
        kept &= 3
        kept *= k
        kept += rows
        children = _Level(arena, n)
        f.ravel().take(kept, out=children.h, mode="clip")
    # each node's least pruned f; a pad's f exceeds _INF, so the clip
    # maps "nothing pruned" to _INF
    np.putmask(f, keep, _INF)
    exceed = level.exceed[s]
    np.minimum.reduce(f, axis=0, out=exceed)
    np.minimum(exceed, _INF, out=exceed)
    if goal:
        exceed[-1] = threshold
    if not n:
        return None
    children.h -= g
    # the first goal among the children ends the level at it
    first = children.h.argmin()
    if children.h[first] == 0:
        n = first + 1
        children.cut(n)
        kept, rows = kept[:n], rows[:n]
    picked = index.ravel().take(kept, out=scratch.picked[:n], mode="clip")
    _CHILD_KEY.take(picked, out=children.key, mode="clip")
    board.take(rows, out=children.board, mode="clip")
    children.board ^= _SLIDE.take(picked, out=scratch.slid[:n], mode="clip")
    np.copyto(children.parent, rows, casting="same_kind")
    return children


def _cut(stack: list[_Level]) -> None:
    """The top level ends at a goal: drop every node after it in DFS
    order, down the stack."""
    last = len(stack[-1]) - 1
    for upper, lower in zip(stack[:0:-1], stack[-2::-1]):
        last = lower.start + int(upper.parent[last])
        lower.cut(last + 1)


def _fold(upper: _Level, lower: _Level, keep_kids: bool, split_budget: int,
          scratch: _Scratch) -> None:
    """Add the done ``upper`` level's subtrees into the slice of
    ``lower`` that made it; with ``keep_kids``, keep the children's
    skeletons of the slice's nodes that split."""
    parent = upper.parent
    s = slice(lower.start, lower.stop)
    visits = lower.visits[s]
    np.add.at(visits, parent, upper.visits)
    np.minimum.at(lower.exceed[s], parent, upper.exceed)
    if not keep_kids:
        return
    split = np.greater(visits, split_budget, out=scratch.keep[:len(visits)])
    split = split.nonzero()[0]
    if not len(split):
        return
    last = len(upper) - 1
    for i, a, b in zip(split.tolist(), np.searchsorted(parent, split).tolist(),
                       np.searchsorted(parent, split, "right").tolist()):
        lower.kids[lower.start + i] = [
            (v, e, upper.found and c == last, upper.kids.get(c))
            for c, v, e in zip(range(a, b), upper.visits[a:b].tolist(),
                               upper.exceed[a:b].tolist())]


def _bounded_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                 prev_blank: int) -> tuple[int, int, bool]:
    """Cost-bounded DFS.  Returns (min_exceed, visits, found).

    ``min_exceed`` is the smallest f that crossed the threshold (the
    next iteration's threshold candidate), or a large sentinel if the
    subtree was exhausted.
    """
    visits, exceed, found, _ = _search(board, g, h, threshold, prev_blank,
                                       0, 1)
    return exceed, visits, found


def ida_star_sequential(board: tuple[int, ...], max_iterations: int = 60
                        ) -> tuple[int, float, int]:
    """Plain sequential IDA*.  Returns (solution_depth, visits, iterations).

    The tests check the parallel decomposition's iterations and total
    visits against it; ``tests/apps/_reference.py`` holds the
    independent recursive search that both are judged by.
    """
    h0 = manhattan(board)
    threshold = h0
    visits = 0.0
    for it in range(1, max_iterations + 1):
        exceed, v, found = _bounded_dfs(board, 0, h0, threshold, -1)
        visits += v
        if found:
            return threshold, visits, it
        if exceed >= _INF:
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    raise RuntimeError("max_iterations exceeded")


def _annotated_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                   prev_blank: int, depth_budget: int,
                   split_budget: int) -> _Skeleton:
    """Cost-bounded DFS that keeps per-child subtree sizes down to
    ``depth_budget`` plies (one pass; below the budget it only counts)."""
    return _search(board, g, h, threshold, prev_blank, depth_budget,
                   split_budget)


def _emit(node: _Skeleton, wave: int, tasks: list[TraceTask]) -> int:
    """Append the task (sub)tree of a skeleton node to ``tasks``; returns
    the id of its root task."""
    tid = len(tasks)
    tasks.append(None)  # type: ignore[arg-type]  # placeholder
    visits, _, _, children = node
    if not children:
        tasks[tid] = TraceTask(
            tid, work=float(visits), wave=wave, label="ida-search",
        )
    else:
        child_ids = _emit_children(children, wave, tasks)
        tasks[tid] = TraceTask(
            tid, work=float(1 + len(child_ids)), wave=wave,
            children=child_ids, label="ida-expand",
        )
    return tid


def _emit_children(children: list[_Skeleton], wave: int,
                   tasks: list[TraceTask]) -> tuple[int, ...]:
    """:func:`_emit` each child, then empty the list: a subtree's
    skeleton is freed once its tasks exist, so the two never peak
    together."""
    ids = tuple(_emit(c, wave, tasks) for c in children)
    children.clear()
    return ids


def _build(config: IDAStarConfig) -> WorkloadTrace:
    board = config.board()
    h0 = manhattan(board)
    threshold = h0
    budget = config.split_budget
    tasks: list[TraceTask] = []
    prev_driver: Optional[int] = None
    found = False

    for wave in range(config.max_iterations):
        root = _annotated_dfs(board, 0, h0, threshold, -1, SPLIT_DEPTH_LIMIT,
                              budget)
        _, exceed, found, root_children = root

        driver_id = len(tasks)
        tasks.append(None)  # type: ignore[arg-type]  # placeholder

        # the driver owns the iteration root's expansion; its children
        # are the root's successors (or, for a tiny iteration, a single
        # search task covering the whole tree)
        if root_children:
            search_ids = _emit_children(root_children, wave, tasks)
        else:
            search_ids = (_emit(root, wave, tasks),)
        tasks[driver_id] = TraceTask(
            driver_id,
            work=float(1 + len(search_ids)),
            wave=wave,
            children=search_ids,
            pinned=0,
            label=f"ida-driver-t{threshold}",
        )

        if prev_driver is not None:
            prev = tasks[prev_driver]
            tasks[prev_driver] = TraceTask(
                prev.id, prev.work, prev.wave,
                prev.children + (driver_id,), prev.pinned, prev.home,
                prev.data_bytes, prev.label,
            )
        prev_driver = driver_id
        if found:
            break
        if exceed >= _INF:
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    else:
        raise RuntimeError("max_iterations exceeded while building IDA* trace")

    return WorkloadTrace(
        f"ida-{config.walk_steps}-{config.seed}",
        tasks,
        sec_per_unit=SEC_PER_VISIT,
        description=(
            f"IDA* 15-puzzle, walk={config.walk_steps} seed={config.seed}, "
            f"h0={h0}, solved at threshold {threshold}, "
            f"{len(tasks)} tasks in {tasks[-1].wave + 1 if tasks else 0} "
            f"iterations, split budget {budget} visits"
        ),
    )


def idastar_trace(config: IDAStarConfig | int, use_cache: bool = True) -> WorkloadTrace:
    """Workload trace for parallel IDA* (config number 1-3 or explicit)."""
    if isinstance(config, int):
        config = PAPER_CONFIGS[config]
    params = {
        "walk": config.walk_steps,
        "seed": config.seed,
        "budget": config.split_budget,
        "v": 2,
    }
    if not use_cache:
        return _build(config)
    return cached_trace("idastar", params, lambda: _build(config))
