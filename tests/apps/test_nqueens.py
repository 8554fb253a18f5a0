"""Tests for the N-Queens application."""

import pytest

from repro.apps.nqueens import (
    MAX_N,
    QueensConfig,
    count_solutions,
    nqueens_trace,
    solve_queens,
)

KNOWN_SOLUTIONS = {1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
                   11: 2680, 12: 14200}


@pytest.mark.parametrize("n,expected", sorted(KNOWN_SOLUTIONS.items()))
def test_solution_counts_match_oeis(n, expected):
    assert count_solutions(n) == expected


def test_solver_visits_positive():
    sols, visits = solve_queens(6)
    assert sols == 4 and visits > 4


def test_trace_tasks_partition_the_search():
    """The sum of solver-task subtree solutions equals the full count,
    and the per-task work sums to (roughly) the sequential visit count."""
    n = 8
    trace = nqueens_trace(n, split_depth=2, use_cache=False)
    assert "92 solutions" in trace.description
    _, seq_visits = solve_queens(n)
    solver_work = sum(t.work for t in trace if t.label == "solve")
    # expander visits are excluded from solver work; the solver subtrees
    # cover everything below the split depth
    assert solver_work <= seq_visits
    assert solver_work >= 0.9 * seq_visits


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_split_depth_controls_task_count(depth):
    trace = nqueens_trace(8, split_depth=depth, use_cache=False)
    if depth == 0:
        assert len(trace) == 1
    else:
        prev = nqueens_trace(8, split_depth=depth - 1, use_cache=False)
        assert len(trace) > len(prev)


def test_trace_is_single_wave_single_root():
    trace = nqueens_trace(7, split_depth=2, use_cache=False)
    assert trace.num_waves == 1
    assert len(trace.roots) == 1 and trace.roots[0].id == 0


def test_children_form_a_tree():
    trace = nqueens_trace(7, split_depth=2, use_cache=False)
    seen = set()
    for t in trace:
        for c in t.children:
            assert c not in seen
            seen.add(c)
    assert len(seen) == len(trace) - 1  # everyone but the root is a child


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    t1 = nqueens_trace(6, split_depth=2)
    files = list(tmp_path.glob("*.pkl"))
    assert len(files) == 1
    t2 = nqueens_trace(6, split_depth=2)
    assert len(t1) == len(t2)
    assert [t.work for t in t1] == [t.work for t in t2]


def test_config_validation():
    with pytest.raises(ValueError):
        QueensConfig(n=0)
    with pytest.raises(ValueError):
        QueensConfig(n=5, split_depth=9)
    # the fixed-width masks hold no wider board
    with pytest.raises(ValueError):
        QueensConfig(n=MAX_N + 1)
    with pytest.raises(ValueError):
        solve_queens(MAX_N + 1)


def test_full_depth_split():
    # split at n: every leaf is a full placement
    trace = nqueens_trace(5, split_depth=5, use_cache=False)
    solvers = [t for t in trace if t.label == "solve"]
    assert len(solvers) == 10  # 10 solutions of 5-queens reach depth 5
