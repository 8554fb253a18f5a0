"""Event-loop microbenchmark emitter (``python -m repro bench``).

Measures raw simulator throughput in events/sec with two shapes:

* ``chain`` — a single self-rescheduling event: the heap stays near-empty,
  so the number isolates per-event fixed costs (allocation, push/pop,
  dispatch);
* ``loaded`` — the same workload on top of a ~1000-event heap, so heap
  sift comparisons dominate.

Results are written to ``BENCH_events_per_sec.json`` (stdlib only,
``time.perf_counter``), giving future PRs a perf trajectory to compare
against.  ``seed_reference`` pins the numbers measured on the *seed*
kernel (dataclass events, O(n) ``pending``) on the same reference
machine, so the file itself documents the speedup of the current kernel.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

from repro.machine.event import Simulator

__all__ = [
    "bench_checkpoint_overhead",
    "bench_events_per_sec",
    "check_bench",
    "emit_bench",
    "CHECKPOINT_OVERHEAD_TOLERANCE",
    "DEFAULT_BENCH_PATH",
    "REGRESSION_TOLERANCE",
]

#: ``bench --check`` fails when a shape regresses more than this fraction
#: below the committed baseline.
REGRESSION_TOLERANCE = 0.10

#: Unused checkpoint machinery must cost (nearly) nothing: the chain rate
#: on a machine-owned simulator carrying snapshot roots may not fall more
#: than this fraction below the plain-simulator chain rate.
CHECKPOINT_OVERHEAD_TOLERANCE = 0.05

DEFAULT_BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_events_per_sec.json"

#: events/sec of the pre-optimization kernel (commit c25fa61) on the
#: reference machine, same benchmark bodies.  Kept static: the seed code
#: no longer exists in-tree to re-measure.
SEED_REFERENCE = {"chain": 1_057_240, "loaded": 372_679}


def _chain_rate(sim, n: int) -> float:
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - t0)


def _bench_chain(sim_cls, n: int) -> float:
    return _chain_rate(sim_cls(), n)


def _bench_loaded(sim_cls, n: int, fanout: int = 1000) -> float:
    sim = sim_cls()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(1e-6 * ((count[0] % 7) + 1), tick)

    for i in range(fanout):
        sim.schedule(1e-6 * i, tick)
    t0 = time.perf_counter()
    sim.run()
    return count[0] / (time.perf_counter() - t0)


def bench_events_per_sec(events: int = 200_000, reps: int = 5) -> dict:
    """Run both shapes ``reps`` times; report the best rate of each
    (best-of filters scheduler noise, the standard microbenchmark move)."""
    chain = max(_bench_chain(Simulator, events) for _ in range(reps))
    loaded = max(_bench_loaded(Simulator, events) for _ in range(reps))
    return {
        "benchmark": "simulator_event_throughput",
        "events": events,
        "reps": reps,
        "events_per_sec": {"chain": round(chain), "loaded": round(loaded)},
        "seed_reference": dict(SEED_REFERENCE),
        "speedup_vs_seed": {
            "chain": round(chain / SEED_REFERENCE["chain"], 2),
            "loaded": round(loaded / SEED_REFERENCE["loaded"], 2),
        },
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def bench_checkpoint_overhead(events: int = 200_000, reps: int = 5) -> dict:
    """Chain throughput with vs without the checkpoint machinery present.

    Both arms run the identical self-rescheduling chain; the "rooted" arm
    runs it on a :class:`~repro.machine.machine.Machine`-owned simulator
    with snapshot roots registered — i.e. a fully checkpointable machine
    on which no checkpoint is ever taken.  Snapshotting is a
    pause-the-world pickle, so nothing of it should live in the event
    loop; this gate catches any future drift toward per-event
    bookkeeping.
    """
    from repro.machine import Machine, MeshTopology

    def rooted_sim():
        machine = Machine(MeshTopology(2, 2), seed=1)
        machine.register_snapshot_root("bench", {"marker": True})
        return machine.sim

    plain = max(_bench_chain(Simulator, events) for _ in range(reps))
    rooted = max(_chain_rate(rooted_sim(), events) for _ in range(reps))
    return {
        "events": events,
        "reps": reps,
        "plain": round(plain),
        "with_roots": round(rooted),
        "ratio": round(rooted / plain, 3),
    }


def emit_bench(
    path: Optional[Path | str] = None,
    events: int = 200_000,
    reps: int = 5,
) -> dict:
    """Run the benchmarks and write the JSON report; returns the report."""
    out = Path(path) if path is not None else DEFAULT_BENCH_PATH
    report = bench_events_per_sec(events=events, reps=reps)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_bench(
    path: Optional[Path | str] = None,
    events: Optional[int] = None,
    reps: Optional[int] = None,
    tolerance: float = REGRESSION_TOLERANCE,
    report: Optional[dict] = None,
    checkpoint_report: Optional[dict] = None,
) -> dict:
    """Compare a fresh measurement against the committed baseline.

    Returns ``{"ok", "tolerance", "baseline", "measured", "ratios",
    "failures", "checkpoint"}``; ``ok`` is False when any shape's
    measured rate falls more than ``tolerance`` below the baseline, or
    when the checkpoint-overhead gate fails.  The baseline file is never
    rewritten by a check (pass ``report`` to reuse a measurement).

    ``events``/``reps`` default to what the baseline was measured with
    (throughput depends on event count — the ``loaded`` shape amortizes
    its 1000-event fan-out over the run — so a mismatched check would
    flag phantom regressions).

    The checkpoint gate (:func:`bench_checkpoint_overhead`) is
    self-relative — two arms measured side by side, no baseline file —
    so it only runs when this call measures live; a caller supplying a
    canned ``report`` gets no gate unless it also supplies a
    ``checkpoint_report``.
    """
    baseline_path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    doc = json.loads(baseline_path.read_text())
    baseline = doc["events_per_sec"]
    if report is None:
        if events is None:
            events = doc.get("events", 200_000)
        if reps is None:
            reps = doc.get("reps", 5)
        report = bench_events_per_sec(events=events, reps=reps)
        if checkpoint_report is None:
            checkpoint_report = bench_checkpoint_overhead(
                events=events, reps=reps)
    measured = report["events_per_sec"]
    ratios = {k: measured[k] / baseline[k] for k in baseline}
    failures = [k for k, r in ratios.items() if r < 1.0 - tolerance]
    checkpoint = None
    if checkpoint_report is not None:
        checkpoint = {
            **checkpoint_report,
            "tolerance": CHECKPOINT_OVERHEAD_TOLERANCE,
        }
        if checkpoint_report["ratio"] < 1.0 - CHECKPOINT_OVERHEAD_TOLERANCE:
            failures.append("checkpoint_overhead")
    return {
        "ok": not failures,
        "tolerance": tolerance,
        "baseline": dict(baseline),
        "measured": dict(measured),
        "ratios": {k: round(r, 3) for k, r in ratios.items()},
        "failures": failures,
        "checkpoint": checkpoint,
    }
