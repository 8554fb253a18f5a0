"""Tests for sequential IDA* and the parallel trace construction."""

import sys

import pytest

from repro.apps.idastar import (
    SPLIT_DEPTH_LIMIT,
    IDAStarConfig,
    _annotated_dfs,
    _bounded_dfs,
    ida_star_sequential,
    idastar_trace,
)
from repro.apps.puzzle import GOAL, manhattan, random_walk_instance


def bfs_optimal_depth(board, limit=20):
    """Breadth-first oracle for small instances."""
    from repro.apps.puzzle import neighbors

    if board == GOAL:
        return 0
    seen = {board}
    frontier = [board]
    for depth in range(1, limit + 1):
        nxt = []
        for b in frontier:
            for nb, _ in neighbors(b):
                if nb == GOAL:
                    return depth
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    raise RuntimeError("not found within limit")


@pytest.mark.parametrize("steps,seed", [(6, 1), (10, 2), (14, 3), (18, 4)])
def test_ida_star_finds_optimal_depth(steps, seed):
    board = random_walk_instance(steps, seed)
    depth, visits, iters = ida_star_sequential(board)
    assert depth == bfs_optimal_depth(board)
    assert visits >= 1 and iters >= 1


def test_ida_star_on_goal():
    depth, visits, iters = ida_star_sequential(GOAL)
    assert depth == 0 and iters == 1


def test_bounded_dfs_respects_threshold():
    board = random_walk_instance(12, 5)
    h = manhattan(board)
    exceed, visits, found = _bounded_dfs(board, 0, h, h - 2, -1)
    assert not found
    assert exceed > h - 2


def test_search_keeps_a_flat_stack():
    # no Python frame per ply: both searches fit in 20 frames above
    # their caller at thresholds 28 and 30
    board = random_walk_instance(40, 11)
    h = manhattan(board)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        for threshold in (h + 4, h + 6):
            exceed, visits, found = _bounded_dfs(board, 0, h, threshold, -1)
            skeleton = _annotated_dfs(board, 0, h, threshold, -1,
                                      SPLIT_DEPTH_LIMIT, 40)
            assert skeleton[:3] == (visits, exceed, found)
    finally:
        sys.setrecursionlimit(limit)


def test_trace_structure():
    cfg = IDAStarConfig(walk_steps=16, seed=2, split_budget=50)
    trace = idastar_trace(cfg, use_cache=False)
    # one driver per wave, pinned to rank 0
    drivers = [t for t in trace if t.pinned is not None]
    assert len(drivers) == trace.num_waves
    for d in drivers:
        assert d.pinned == 0
    # drivers chain across waves
    for d in drivers[:-1]:
        cross = [c for c in d.children if trace.task(c).wave == d.wave + 1]
        assert len(cross) == 1
        assert trace.task(cross[0]).pinned == 0
    # all non-driver children stay in their driver's wave
    for d in drivers:
        for c in d.children:
            child = trace.task(c)
            assert child.wave in (d.wave, d.wave + 1)


def test_split_budget_bounds_search_task_grain():
    cfg = IDAStarConfig(walk_steps=30, seed=7, split_budget=100)
    trace = idastar_trace(cfg, use_cache=False)
    searches = [t for t in trace if t.label == "ida-search"]
    assert searches
    # the split guard allows deep spines through, but the bulk obeys it
    within = sum(1 for t in searches if t.work <= 100)
    assert within >= 0.95 * len(searches)


def test_smaller_budget_more_tasks():
    small = idastar_trace(
        IDAStarConfig(walk_steps=30, seed=7, split_budget=50), use_cache=False
    )
    big = idastar_trace(
        IDAStarConfig(walk_steps=30, seed=7, split_budget=5000), use_cache=False
    )
    assert len(small) > len(big)
    # the iteration (wave) count is an instance property — the threshold
    # sequence — and must not depend on the decomposition grain
    assert small.num_waves == big.num_waves


def test_trace_total_visits_close_to_sequential():
    """The parallel decomposition searches (almost) the same tree; the
    only extra work is the expander/driver re-expansions."""
    cfg = IDAStarConfig(walk_steps=18, seed=7, split_budget=60)
    trace = idastar_trace(cfg, use_cache=False)
    board = cfg.board()
    _depth, seq_visits, seq_iters = ida_star_sequential(board)
    par_visits = sum(t.work for t in trace)
    assert par_visits == pytest.approx(seq_visits, rel=0.25)
    assert trace.num_waves == seq_iters


def test_trace_by_config_number():
    small = IDAStarConfig(walk_steps=12, seed=9, split_budget=40)
    t = idastar_trace(small, use_cache=False)
    assert len(t) >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        IDAStarConfig(walk_steps=10, seed=1, split_budget=0)
