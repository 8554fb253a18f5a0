"""Runner/kernel performance benchmarks.

Two families:

* event-loop throughput (the kernel hot path) — the same chain/loaded
  shapes that ``python -m repro bench`` records in
  ``BENCH_events_per_sec.json``;
* grid wall-clock vs ``jobs`` — timings are *reported* (via the
  benchmark's extra_info and stdout), but the only assertion is result
  identity: on a single-core CI box parallel dispatch legitimately wins
  nothing, so asserting a speedup would be flaky by construction.
"""

from __future__ import annotations

import time

from repro.experiments import table1
from repro.runner import run_requests
from repro.runner.bench import _bench_chain, _bench_loaded
from repro.machine.event import Simulator


def test_bench_event_loop_chain(benchmark):
    def run_chain():
        return _bench_chain(Simulator, 50_000)

    rate = benchmark(run_chain)
    assert rate > 0


def test_bench_event_loop_loaded(benchmark):
    def run_loaded():
        return _bench_loaded(Simulator, 50_000)

    rate = benchmark(run_loaded)
    assert rate > 0


def test_bench_grid_cell(benchmark):
    """One representative grid cell end to end (trace from disk cache)."""
    from repro.runner import RunRequest, execute_request

    req = RunRequest("queens-10", "RIPS", num_nodes=32, seed=1234, scale="small")
    execute_request(req)  # warm the trace cache outside the timed region
    m = benchmark(execute_request, req)
    assert m.num_tasks > 0


def test_grid_wall_clock_scaling_with_jobs():
    """Fan a Table-I slice out at jobs=1/2/4; identical results required,
    wall-clock per jobs level printed for the perf trajectory."""
    reqs = table1.build_requests(
        num_nodes=32,
        scale="small",
        workload_keys=("queens-10", "queens-11", "ida-1"),
    )
    timings = {}
    baseline = None
    for jobs in (1, 2, 4):
        t0 = time.perf_counter()
        results = run_requests(reqs, jobs=jobs)
        timings[jobs] = time.perf_counter() - t0
        if baseline is None:
            baseline = results
        else:
            assert results == baseline  # determinism across pool sizes
    print("grid wall-clock by jobs:",
          {j: f"{dt:.2f}s" for j, dt in timings.items()})
