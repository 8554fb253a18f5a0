"""The trace kernels against the implementations they replaced.

``_reference`` holds the per-group ``pair_counts`` loop and the
tuple-board IDA* searches verbatim.  The cell-block distances and the
one mutable board must give exactly the same pair counts and the same
search results, so that every trace built from them is unchanged.
"""

import numpy as np
import pytest

from repro.apps import gromos
from repro.apps.gromos import pair_counts
from repro.apps.idastar import SPLIT_DEPTH_LIMIT, _annotated_dfs, _bounded_dfs
from repro.apps.molecule import synthetic_sod
from repro.apps.puzzle import GOAL, manhattan, random_walk_instance
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


def same_skeleton(a, b) -> bool:
    if (a.visits, a.exceed, a.found) != (b.visits, b.exceed, b.found):
        return False
    if a.children is None or b.children is None:
        return a.children is b.children
    return (len(a.children) == len(b.children)
            and all(same_skeleton(x, y) for x, y in zip(a.children, b.children)))


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
