"""The trace kernels against the implementations they replaced.

``_reference`` holds the per-group ``pair_counts`` loop, the
tuple-board IDA* searches and the recursive N-Queens solver verbatim.
The cell-block distances, the sliced IDA* search with its tuple
skeleton and the level-by-level subtree counter must give exactly the
same pair counts, search results and per-task counts, so that every
trace built from them is unchanged.
"""

import numpy as np
import pytest

from repro.apps import gromos, idastar, nqueens
from repro.apps.gromos import pair_counts
from repro.apps.idastar import SPLIT_DEPTH_LIMIT, _annotated_dfs, _bounded_dfs
from repro.apps.molecule import synthetic_sod
from repro.apps.nqueens import _subtree_counts, nqueens_trace, solve_queens
from repro.apps.puzzle import GOAL, manhattan, neighbors, random_walk_instance
from repro.experiments.common import _gromos_kwargs

from . import _reference as ref

MOLECULES = {
    "small": lambda: synthetic_sod(n_atoms=600, n_groups=200, seed=5),
    # 20 A box: ncell < 3 at an 8 A cutoff, ncell = 1 at 25 A
    "tight-box": lambda: synthetic_sod(n_atoms=300, n_groups=90, box=20.0, seed=3),
    # large drift clips atoms onto the box faces
    "perturbed": lambda: synthetic_sod(n_atoms=500, n_groups=150, seed=7).perturb(
        4.0, np.random.default_rng(1)),
}


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("cutoff", [6.0, 8.0, 12.0, 16.0, 25.0])
@pytest.mark.parametrize("name", sorted(MOLECULES))
def test_pair_counts_equal_reference(name, cutoff, periodic):
    mol = MOLECULES[name]()
    expected = ref.pair_counts(mol, cutoff, periodic)
    assert np.array_equal(pair_counts(mol, cutoff, periodic), expected)


@pytest.mark.parametrize("periodic", [True, False])
def test_pair_counts_equal_reference_on_small_table1_molecule(periodic):
    # the largest blocks of the small-scale workloads
    mol = synthetic_sod(**_gromos_kwargs("small"))
    assert np.array_equal(pair_counts(mol, 16.0, periodic),
                          ref.pair_counts(mol, 16.0, periodic))


@pytest.mark.parametrize("cap", [1, 97, 5000])
def test_pair_counts_equal_reference_whatever_the_block_cap(monkeypatch, cap):
    # a cap below one cell's pairs splits its block into chunks
    mol = MOLECULES["small"]()
    monkeypatch.setattr(gromos, "_BLOCK_PAIRS", cap)
    for periodic in (True, False):
        assert np.array_equal(pair_counts(mol, 16.0, periodic),
                              ref.pair_counts(mol, 16.0, periodic))


BOARDS = [random_walk_instance(steps, seed)
          for steps, seed in [(12, 5), (20, 1), (30, 2), (40, 11), (44, 23)]]


def same_skeleton(node, want) -> bool:
    """The skeleton tuple ``node`` equals the reference ``_Annotated``
    ``want`` in every field, recursively."""
    visits, exceed, found, children = node
    if (visits, exceed, found) != (want.visits, want.exceed, want.found):
        return False
    if children is None or want.children is None:
        return children is None and want.children is None
    return (len(children) == len(want.children)
            and all(same_skeleton(x, y) for x, y in zip(children, want.children)))


def thresholds(board):
    h = manhattan(board)
    # below h, at h, and the next iterations' even steps
    return [h - 2, h, h + 2, h + 4]


@pytest.mark.parametrize("board", BOARDS + [GOAL])
def test_bounded_dfs_equals_reference(board):
    h = manhattan(board)
    for threshold in thresholds(board):
        got = _bounded_dfs(board, 0, h, threshold, -1)
        assert got == ref._bounded_dfs(board, 0, h, threshold, -1)
        assert type(got[1]) is int


@pytest.mark.parametrize("depth_budget", [1, 3, SPLIT_DEPTH_LIMIT])
@pytest.mark.parametrize("board", BOARDS + [GOAL])
def test_annotated_dfs_equals_reference(board, depth_budget):
    h = manhattan(board)
    for threshold in thresholds(board):
        for split_budget in (1, 40, 200):
            got = _annotated_dfs(board, 0, h, threshold, -1, depth_budget,
                                 split_budget)
            want = ref._annotated_dfs(board, 0, h, threshold, -1,
                                      depth_budget, split_budget)
            assert same_skeleton(got, want)


def test_search_below_the_root_equals_reference():
    # a non-root call: g > 0 and a previous blank to skip
    board = BOARDS[3]
    blank = board.index(0)
    for prev_blank in (blank - 1, blank + 1, blank - 4, blank + 4):
        if not 0 <= prev_blank < 16:
            continue
        h = manhattan(board)
        args = (board, 3, h, h + 5, prev_blank)
        assert _bounded_dfs(*args) == ref._bounded_dfs(*args)
        assert same_skeleton(_annotated_dfs(*args, 4, 40),
                             ref._annotated_dfs(*args, 4, 40))


#: six goals at its solution depth, 20, where the search must stop at
#: the first one in DFS order
MANY_GOALS = random_walk_instance(20, 3)


def goals_below(board, threshold, g=0, prev_blank=-1) -> int:
    """The goals of the whole cost-bounded tree below ``board``: what a
    search without the early exit would reach."""
    if manhattan(board) == 0:
        return 1
    blank = board.index(0)
    return sum(goals_below(child, threshold, g + 1, blank)
               for child, dest in neighbors(board)
               if dest != prev_blank and g + 1 + manhattan(child) <= threshold)


def solution_threshold(board) -> int:
    """The threshold of the iteration that finds the goal."""
    h = manhattan(board)
    threshold = h
    while True:
        exceed, _, found = ref._bounded_dfs(board, 0, h, threshold, -1)
        if found:
            return threshold
        threshold = exceed


def test_many_goals_board_has_several_goals():
    assert solution_threshold(MANY_GOALS) == 20
    assert goals_below(MANY_GOALS, 20) == 6


def same_searches(args) -> bool:
    """Both searches equal the reference's from ``args``, at two depth
    and split budgets."""
    return (_bounded_dfs(*args) == ref._bounded_dfs(*args)
            and all(same_skeleton(_annotated_dfs(*args, depth, split),
                                  ref._annotated_dfs(*args, depth, split))
                    for depth, split in [(3, 1), (SPLIT_DEPTH_LIMIT, 40)]))


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_searches_equal_reference_whatever_the_slice_cap(monkeypatch, cap):
    # a cap below a level's width puts the cut at a goal across slice
    # boundaries, and on MANY_GOALS a later slice holds a later goal
    monkeypatch.setattr(idastar, "_SLICE_NODES", cap)
    for board in BOARDS[:4] + [MANY_GOALS]:
        h = manhattan(board)
        solved = solution_threshold(board)
        # two thresholds below the goal's iteration, and the goal's
        for threshold in (solved - 4, solved - 2, solved):
            assert same_searches((board, 0, h, threshold, -1))
        assert ref._bounded_dfs(board, 0, h, solved, -1)[2]
    # below the root: g > 0 and a previous blank; found at 23 either way
    h = manhattan(MANY_GOALS)
    for prev_blank in (11, 14):
        for threshold in (21, 23):
            assert same_searches((MANY_GOALS, 3, h, threshold, prev_blank))


def test_a_goal_earlier_in_dfs_order_cuts_again(monkeypatch):
    # above the solution depth the goals sit at several depths, and a
    # wide slice reaches a shallow goal before a deeper one that comes
    # first in DFS order: that one must cut the levels again
    cuts = []
    monkeypatch.setattr(idastar, "_cut",
                        lambda stack, cut=idastar._cut: cuts.append(cut(stack)))
    board = BOARDS[2]
    h = manhattan(board)
    solved = solution_threshold(board)
    for threshold in (solved + 2, solved + 4):
        assert same_searches((board, 0, h, threshold, -1))
    # three searches per threshold, and more cuts than searches
    assert len(cuts) > 6


def queens_frontier(n, depth):
    """The placements of the first ``depth`` queens, lowest column
    first: the states of ``nqueens_trace``'s solver tasks, in id order."""
    full = (1 << n) - 1
    states = [(0, 0, 0)]
    for _ in range(depth):
        nxt = []
        for c, d1, d2 in states:
            free = full & ~(c | d1 | d2)
            while free:
                bit = free & -free
                free ^= bit
                nxt.append((c | bit, ((d1 | bit) << 1) & full, (d2 | bit) >> 1))
        states = nxt
    return states


def subtree_counts(n, states):
    sols, visits = _subtree_counts(n, *zip(*states))
    return list(zip(sols.tolist(), visits.tolist()))


@pytest.mark.parametrize("n,depth", [(n, depth) for n in range(1, 13)
                                     for depth in range(min(n, 4) + 1)])
def test_queens_task_counts_equal_reference(n, depth):
    # depth == n for n <= 4: every solver task is a complete placement
    states = queens_frontier(n, depth)
    want = [ref.solve_queens(n, *s) for s in states]
    if states:
        assert subtree_counts(n, states) == want
    trace = nqueens_trace(n, depth, use_cache=False)
    assert [t.work for t in trace if t.label == "solve"] == [float(v) for _, v in want]
    assert trace.description.endswith(f"; {sum(s for s, _ in want)} solutions")


@pytest.mark.parametrize("n", range(1, 11))
def test_solve_queens_equals_reference(n):
    assert solve_queens(n) == ref.solve_queens(n)
    for state in queens_frontier(n, min(n, 2)):
        assert solve_queens(n, *state) == ref.solve_queens(n, *state)


@pytest.mark.parametrize("cap", [1, 97, 5000])
def test_queens_counts_equal_reference_whatever_the_chunk_cap(monkeypatch, cap):
    # a cap below one node's children takes one node per step
    monkeypatch.setattr(nqueens, "_CHUNK_NODES", cap)
    for n, depth in [(6, 0), (8, 2), (9, 3), (9, 9)]:
        states = queens_frontier(n, depth)
        assert subtree_counts(n, states) == [ref.solve_queens(n, *s) for s in states]
