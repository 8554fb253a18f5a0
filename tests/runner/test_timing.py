"""Per-cell latency split: queue wait vs execution, honestly separated.

Before the split, a cell that sat behind a saturated pool was charged
its queue time as "execution" — a latency built on that number measures
the pool, not the kernel.  ``RunReport.timings`` now carries both parts
per executed cell, and a ``MetricsRegistry`` receives the executor's
counters and latency histograms.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.runner import RunRequest, run_requests_report


def _reqs(n=3, **kw):
    kw.setdefault("workload", "queens-10")
    kw.setdefault("strategy", "RIPS")
    kw.setdefault("num_nodes", 8)
    kw.setdefault("scale", "small")
    return [RunRequest(seed=100 + i, **kw) for i in range(n)]


def test_serial_cells_have_zero_wait():
    report = run_requests_report(_reqs(2), jobs=1, cache=False)
    assert set(report.timings) == {0, 1}
    for timing in report.timings.values():
        assert timing["wait_s"] == 0.0  # serial cells never queue
        assert timing["exec_s"] > 0


def test_pool_cells_split_wait_from_exec():
    # 3 cells on 2 workers: the third cell must queue behind the first two
    report = run_requests_report(_reqs(3), jobs=2, cache=False)
    assert report.executed == 3
    assert set(report.timings) == {0, 1, 2}
    for timing in report.timings.values():
        assert timing["wait_s"] >= 0.0
        assert timing["exec_s"] > 0
    # queue wait is not folded into execution: exec times of queued
    # cells stay in the same ballpark as the unqueued first cell
    execs = [report.timings[i]["exec_s"] for i in range(3)]
    assert max(execs) < 60  # sanity: sub-minute small cells


def test_cache_hits_have_no_timing_entry(tmp_path):
    from repro.runner import ResultCache
    from repro.store import LocalDirStore

    cache = ResultCache(store=LocalDirStore(tmp_path))
    reqs = _reqs(2)
    first = run_requests_report(reqs, jobs=1, cache=cache)
    assert set(first.timings) == {0, 1}
    second = run_requests_report(reqs, jobs=1, cache=cache)
    assert second.cache_hits == 2
    assert second.timings == {}  # nothing ran, nothing to time


def test_registry_receives_executor_series():
    reg = MetricsRegistry()
    report = run_requests_report(_reqs(2), jobs=1, cache=False, metrics=reg)
    assert reg.value("executor.executed") == 2
    assert reg.value("executor.cache_hits") == 0
    assert reg.value("executor.failed") == 0
    h = reg.histogram("executor.cell_exec_s")
    assert h.count == 2
    assert h.min > 0
    assert reg.histogram("executor.cell_wait_s").count == 2
    assert report.executed == 2
