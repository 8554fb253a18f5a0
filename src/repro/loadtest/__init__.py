"""Closed-loop capacity harness: the system measuring itself *as a system*.

``BENCH_events_per_sec.json`` answers "how fast is one kernel"; this
package answers the paper's actual headline question — throughput under
load.  ``python -m repro loadtest`` drives N concurrent sessions
(a configurable mix of workloads × strategies, closed- or open-loop
arrival, seeded) through either the in-process runner's
ProcessPool or a live ``repro serve`` instance, and reports:

* p50/p90/p99 cell latency and queue wait (honestly split — see the
  executor's ``wait_s``/``exec_s``),
* admission/shed/429/503 counts (service target),
* result-cache hit rate,
* aggregate events/sec under contention,
* per-subsystem time attribution from a traced sentinel run
  (:mod:`repro.obs.attribution`), and
* a node/event/lane memory audit (:mod:`repro.obs.memory`).

The report is a versioned ``repro.report/1`` envelope; the committed
``BENCH_loadtest.json`` baseline plus :func:`check_loadtest` gate
regressions exactly the way ``bench --check`` does.
"""

from .harness import LoadtestConfig, build_schedule, run_loadtest
from .report import (
    LOADTEST_DATA_VERSION,
    check_loadtest,
    format_loadtest,
    make_loadtest_report,
)

__all__ = [
    "LOADTEST_DATA_VERSION",
    "LoadtestConfig",
    "build_schedule",
    "check_loadtest",
    "format_loadtest",
    "make_loadtest_report",
    "run_loadtest",
]
