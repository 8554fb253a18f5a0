"""Executor: parallel == serial bit-for-bit, caching, jobs resolution.

The grid identity test is the subsystem's core guarantee: every cell is
seeded independently, so fanning the grid out over worker processes must
change *nothing* about the results — same metrics, same order.
"""

from __future__ import annotations

import pytest

from repro.experiments import table1
from repro.runner import (
    ResultCache,
    RunRequest,
    resolve_jobs,
    run_requests,
    run_requests_report,
)


# ----------------------------------------------------------------------
# jobs knob
# ----------------------------------------------------------------------

def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1  # the pytest/serial default
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # explicit argument wins over env
    assert resolve_jobs("4") == 4
    assert resolve_jobs(0) >= 1  # auto: one per CPU
    assert resolve_jobs("auto") >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    with pytest.raises(ValueError):
        resolve_jobs("lots")


# ----------------------------------------------------------------------
# parallel == serial (acceptance: full small-scale Table I grid)
# ----------------------------------------------------------------------

def test_parallel_grid_bit_identical_to_serial_full_table1():
    reqs = table1.build_requests(num_nodes=32, scale="small")
    assert len(reqs) == 36  # nine workloads x four strategies
    serial = run_requests(reqs, jobs=1)
    parallel = run_requests(reqs, jobs=2)
    assert serial == parallel  # RunMetrics dataclass equality, field by field
    # order is request order, not completion order
    for req, m in zip(reqs, serial):
        assert m.strategy.startswith(req.strategy) or req.strategy in m.strategy
        assert m.num_nodes == req.num_nodes


# ----------------------------------------------------------------------
# result caching (acceptance: second invocation re-runs nothing)
# ----------------------------------------------------------------------

def test_second_invocation_serves_entirely_from_cache(tmp_path):
    reqs = [
        RunRequest("queens-10", s, num_nodes=16, seed=11, scale="small")
        for s in ("random", "RID", "RIPS")
    ]
    store = ResultCache(tmp_path)
    first = run_requests_report(reqs, jobs=1, cache=store)
    assert first.executed == len(reqs)
    assert first.cache_hits == 0

    second = run_requests_report(reqs, jobs=1, cache=store)
    assert second.executed == 0  # zero simulation re-runs
    assert second.cache_hits == len(reqs)
    assert second.results == first.results
    assert store.stats()["entries"] == len(reqs)


def test_cache_shared_between_serial_and_parallel(tmp_path):
    reqs = [
        RunRequest("queens-10", s, num_nodes=16, seed=11, scale="small")
        for s in ("random", "gradient")
    ]
    store = ResultCache(tmp_path)
    first = run_requests_report(reqs, jobs=2, cache=store)
    assert first.executed == len(reqs)
    second = run_requests_report(reqs, jobs=1, cache=store)
    assert second.executed == 0
    assert second.results == first.results


def test_partial_cache_only_runs_missing_cells(tmp_path):
    store = ResultCache(tmp_path)
    first = run_requests_report(
        [RunRequest("queens-10", "RIPS", num_nodes=16, scale="small")],
        jobs=1, cache=store,
    )
    both = run_requests_report(
        [
            RunRequest("queens-10", "RIPS", num_nodes=16, scale="small"),
            RunRequest("queens-10", "random", num_nodes=16, scale="small"),
        ],
        jobs=1, cache=store,
    )
    assert both.cache_hits == 1
    assert both.executed == 1
    assert both.results[0] == first.results[0]


def test_no_cache_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    reqs = [RunRequest("queens-10", "RIPS", num_nodes=16, scale="small")]
    run_requests(reqs)
    assert list(tmp_path.glob("*.pkl")) == []  # library default: no store


def test_bad_workload_key_propagates_not_retries():
    with pytest.raises(KeyError):
        run_requests([RunRequest("queens-99", "RIPS", scale="small")], jobs=1)
