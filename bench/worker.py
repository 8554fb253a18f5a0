"""Run one benchmark workload in this process; print the result as JSON.

``run.py`` starts one fresh worker process per workload, with the trace,
result and snapshot caches pointed into a scratch directory and
warm-start off, so every cell really simulates.  The worker:

1. sets up: cold ``Session.prepare()`` of every distinct (workload,
   nodes) prefix into an empty trace cache, ``SETUP_REPS`` times;
2. for a workload with fault plans, runs each cell once and redraws
   the plan of a cell the program cannot complete (:func:`screen`);
3. for a checkpointing workload, runs each cell once uninterrupted and
   untraced, as the reference its checkpointed runs must match;
4. runs one untimed warm-up pass over the cells;
5. runs timed passes until ``--seconds`` have elapsed (one in smoke
   mode), tracing off, timing the host-speed probe (``probe.py``)
   between cells so that every time can be stated at nominal speed;
6. with ``--trace``, runs one more pass under cProfile and rolls host
   self time up by layer (``layers.py``).

Every cell is checked (see :func:`gate`); the last stdout line is one
JSON document that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from repro.obs.attribution import reconcile, subsystem_attribution
from repro.obs.export import write_chrome_trace
from repro.session import Session
from repro.snapshot import Snapshot

import layers
import workloads
from probe import NOMINAL_S, probe

#: cold set-up repetitions; ``setup_s`` is their median
SETUP_REPS = 3

#: event budget of a faulted cell (the chaos harness's termination bound)
MAX_EVENTS = 4_000_000

#: faulted cells a run may redraw before it counts as failed
MAX_REDRAWS = 4

#: per-pass counters that are timings; the rest are exact counts
TIMINGS = ("session.prepare_s", "session.run_s", "snapshot.capture_s",
           "snapshot.restore_s", "obs.attribution_s", "obs.export_s")


class BudgetExceeded(RuntimeError):
    """A faulted cell did not finish within ``MAX_EVENTS`` events."""


class Pass:
    """What one pass over a workload's cells measured."""

    def __init__(self) -> None:
        self.cell_s: list[float] = []
        #: host-speed probes before the first cell and after every cell
        self.probe_s: list[float] = []
        self.efficiency: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self._digest = hashlib.sha256()

    def record(self, label: str, metrics, events: int) -> None:
        self.efficiency.append(metrics.efficiency)
        self._digest.update(
            f"{label}|{metrics.T!r}|{metrics.Th!r}|{metrics.Ti!r}|"
            f"{metrics.messages}|{events}\n".encode())

    def nominal_cell_s(self) -> list[float]:
        """Each cell's time at nominal host speed: its measured time over
        the host's slowdown, the mean of the probes either side of it
        divided by ``NOMINAL_S``."""
        return [t * 2 * NOMINAL_S / (a + b)
                for t, a, b in zip(self.cell_s, self.probe_s, self.probe_s[1:])]

    @property
    def digest(self) -> str:
        """Hash of every cell's T/Th/Ti/messages/events, in cell order."""
        return self._digest.hexdigest()[:24]


def setup_once(wl: workloads.Workload, trace_cache: Path) -> tuple[float, float]:
    """Seconds to cold-prepare every distinct prefix of ``wl``: as
    measured, and at nominal host speed."""
    os.environ["REPRO_TRACE_CACHE"] = str(trace_cache)
    raw = nominal = 0.0
    before = probe()
    for req in wl.prefixes():
        t0 = perf_counter()
        Session.from_request(req).prepare()
        took = perf_counter() - t0
        after = probe()
        raw += took
        nominal += took * NOMINAL_S * 2 / (before + after)
        before = after
    return raw, nominal


def references(wl: workloads.Workload) -> list:
    """Per cell, the (T, Th, Ti, messages) of an uninterrupted untraced
    run; only for checkpointing workloads, whose cells must match it."""
    if not wl.checkpoint_every:
        return [None] * len(wl.cells)
    out = []
    for req in wl.cells:
        m = Session.from_request(replace(req, trace=False)).run()
        out.append((m.T, m.Th, m.Ti, m.messages))
    return out


def _run_checkpointed(sess: Session, every: int, path: Path, tally: Counter):
    """``run --checkpoint-every`` with a ``--resume`` after every second
    checkpoint: returns (metrics, the session that finished)."""
    saved = 0
    while True:
        t0 = perf_counter()
        metrics = sess.run(max_events=every)
        tally["session.run_s"] += perf_counter() - t0
        if metrics is not None:
            return metrics, sess
        t0 = perf_counter()
        sess.checkpoint().save(path)
        tally["snapshot.capture_s"] += perf_counter() - t0
        tally["snapshot.captures"] += 1
        tally["snapshot.bytes"] += path.stat().st_size
        saved += 1
        if saved % 2 == 0:
            t0 = perf_counter()
            sess = Session.restore(Snapshot.load(path))
            tally["snapshot.restore_s"] += perf_counter() - t0


def run_cell(wl: workloads.Workload, req, scratch: Path, tally: Counter):
    """Run one cell through the public Session API; returns (metrics,
    events).  Raises when the run does not complete."""
    t0 = perf_counter()
    sess = Session.from_request(req).prepare()
    t1 = perf_counter()
    tally["session.prepare_s"] += t1 - t0
    if wl.checkpoint_every:
        metrics, sess = _run_checkpointed(
            sess, wl.checkpoint_every, scratch / "cell.ckpt", tally)
    else:
        metrics = sess.run(max_events=MAX_EVENTS if req.faults else None)
        tally["session.run_s"] += perf_counter() - t1
        if metrics is None:
            raise BudgetExceeded(f"not finished after {MAX_EVENTS:,} events")
    events, _now = sess.progress()
    tracer = sess.tracer
    if tracer is not None:
        t0 = perf_counter()
        subsystem_attribution(tracer)
        tally["reconcile_delta_s"] += abs(reconcile(tracer)["delta_s"])
        t1 = perf_counter()
        write_chrome_trace(tracer, scratch / "cell.trace.json", label=req.label())
        tally["obs.export_s"] += perf_counter() - t1
        tally["obs.attribution_s"] += t1 - t0
        tally["obs.records"] += len(tracer.records)
    return metrics, events


def gate(metrics, reference, reconcile_delta: float) -> list[str]:
    """The correctness gates of one completed cell (empty when it passes).

    ``Driver.finish()`` succeeding (no stranded task) is checked by
    :func:`run_cell` raising; these are the rest.
    """
    bad = []
    extra = metrics.extra
    if extra.get("lost_tasks", 0) and not extra.get("crashed_nodes"):
        bad.append(f"{extra['lost_tasks']} tasks lost without a crash")
    for t in (extra.get("membership") or {}).get("transitions", ()):
        if t["lost_delta"] != 0:
            bad.append(f"epoch {t['epoch']} ({t['kind']}) lost_delta {t['lost_delta']}")
    spread = extra.get("max_quota_spread")
    if spread is not None and spread > 1:
        bad.append(f"max_quota_spread {spread} > 1")
    if reference is not None:
        got = (metrics.T, metrics.Th, metrics.Ti, metrics.messages)
        if got != reference:
            bad.append(f"checkpointed run {got} != uninterrupted {reference}")
    if reconcile_delta != 0.0:
        bad.append(f"reconcile delta_s {reconcile_delta} != 0")
    return bad


def screen(wl: workloads.Workload, scratch: Path) -> tuple[workloads.Workload, list[str]]:
    """Run each cell of a workload that can redraw its plans once, and
    replace a cell that fails by a redraw for the same slot.

    Some drawn plans hit faults the program does not survive (RIPS
    cells that never finish after a crash, cells that lose tasks
    without one).  The benchmark times the program, so such plans are not
    part of the workload; the chaos harness is where they are hunted.
    Returns the screened workload and one note per redrawn cell.  After
    ``MAX_REDRAWS`` redraws the remaining cells are kept as drawn, so a
    program that fails often still fails the run.
    """
    notes: list[str] = []
    if wl.redraw is None:
        return wl, notes
    for i in range(len(wl.cells)):
        attempt = 0
        while len(notes) < MAX_REDRAWS:
            req = wl.cells[i]
            tally: Counter = Counter()
            try:
                metrics, _events = run_cell(wl, req, scratch, tally)
                problems = gate(metrics, None, tally.pop("reconcile_delta_s", 0.0))
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if not problems:
                break
            notes.append(f"{req.label()} [{req.faults.describe()}]: "
                         f"{'; '.join(problems)}; redrawn")
            wl = replace(wl, cells=wl.cells[:i] + (wl.redraw(i, attempt),) + wl.cells[i + 1:])
            attempt += 1
    return wl, notes


def count_layers(tally: Counter, metrics) -> None:
    """Add one cell's public counters to the pass tally."""
    tally["machine.network.messages"] += metrics.messages
    tally["machine.network.bytes"] += metrics.bytes
    tally["machine.network.task_hops"] += metrics.task_hops
    tally["tasks"] += metrics.num_tasks
    tally["nonlocal_tasks"] += metrics.nonlocal_tasks
    tally["core.rips.system_phases"] += metrics.system_phases
    extra = metrics.extra
    tally["core.rips.migrated_tasks"] += extra.get("migrated_tasks", 0)
    tally["core.mwa.plan_cost"] += extra.get("plan_cost_total", 0)
    fs = extra.get("fault_stats")
    if fs is not None:
        tally["faults.retransmits"] += fs["retransmits"]
        tally["faults.drops"] += (fs["drops"] + fs["outage_drops"]
                                  + fs.get("partition_drops", 0))
        tally["faults.detected_dead"] += len(fs["detected_dead"])
        tally["membership.epochs"] += (fs.get("membership") or {}).get("epoch", 0)


def run_pass(wl: workloads.Workload, refs: list, scratch: Path,
             probed: bool = True) -> Pass:
    """One pass over every cell of ``wl``, probing host speed between
    cells unless ``probed`` is false."""
    p = Pass()
    if probed:
        p.probe_s.append(probe())
    for req, ref in zip(wl.cells, refs):
        t0 = perf_counter()
        tally: Counter = Counter()
        try:
            metrics, events = run_cell(wl, req, scratch, tally)
        except Exception as exc:  # a failing cell is counted, not fatal
            p.failed += 1
            p.failures.append(f"{req.label()}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            p.cell_s.append(perf_counter() - t0)
            if probed:
                p.probe_s.append(probe())
        problems = gate(metrics, ref, tally.pop("reconcile_delta_s", 0.0))
        p.failed += bool(problems)
        p.failures += [f"{req.label()}: {msg}" for msg in problems]
        p.record(req.label(), metrics, events)
        count_layers(tally, metrics)
        tally["machine.event.events"] += events
        p.counters.update(tally)
    return p


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(wl: workloads.Workload, setup: list[tuple[float, float]],
              passes: list[Pass], all_passes: list[Pass]) -> dict:
    """The worker's JSON document for the timed passes."""
    n = len(wl.cells)
    nominal = [p.nominal_cell_s() for p in passes]
    counters = dict(passes[0].counters)
    for key in TIMINGS:
        counters[key] = _median([p.counters[key] for p in passes])
    counters["balancers.nonlocal_frac"] = (
        counters.pop("nonlocal_tasks", 0) / max(1, counters.pop("tasks", 1)))
    digests = {p.digest for p in all_passes}
    failures = [f for p in all_passes for f in p.failures]
    failed = sum(p.failed for p in all_passes)
    if len(digests) != 1:
        failures.append(f"passes disagree: sim digests {sorted(digests)}")
        failed += 1
    return {
        "workload": wl.name,
        "cells": n,
        "events": counters.get("machine.event.events", 0),
        "attempted": n * len(all_passes),
        "failed": failed,
        "failures": failures,
        "setup_s": [nom for _raw, nom in setup],
        "setup_measured_s": [raw for raw, _nom in setup],
        # each cell's median time over the passes, so a burst of host
        # noise during one cell of one pass does not move the result
        "pass_s": sum(_median([c[i] for c in nominal]) for i in range(n)),
        "pass_measured_s": sum(_median([p.cell_s[i] for p in passes]) for i in range(n)),
        "pass_s_each": [sum(c) for c in nominal],
        "host_slowdown": _median([x for p in passes for x in p.probe_s]) / NOMINAL_S,
        "sim_mu_mean": statistics.fmean(passes[0].efficiency) if passes[0].efficiency else 0.0,
        "sim_digest": passes[0].digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": counters,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    work = args.workdir
    reps = 1 if args.smoke else SETUP_REPS
    # the passes reuse the last repetition's trace cache
    setup = [setup_once(wl, work / f"traces-{i}") for i in range(reps)]
    wl, redrawn = screen(wl, work)
    refs = references(wl)
    runs = [run_pass(wl, refs, work)]  # untimed warm-up
    timed: list[Pass] = []
    t0 = perf_counter()
    while not timed or (not args.smoke and perf_counter() - t0 < args.seconds):
        timed.append(run_pass(wl, refs, work))
    runs += timed
    doc = summarize(wl, setup, timed, runs)
    doc["redrawn"] = redrawn
    if args.trace:
        prof = cProfile.Profile()
        prof.enable()
        traced = run_pass(wl, refs, work, probed=False)
        prof.disable()
        prof.create_stats()
        split = layers.rollup(prof.stats)
        problems = []
        if split["unmapped"]:
            problems.append(f"repro modules mapped to no layer: {split['unmapped']}")
        if traced.digest != doc["sim_digest"]:
            problems.append(
                f"traced sim digest {traced.digest} != untraced {doc['sim_digest']}")
        doc["attempted"] += len(wl.cells)
        doc["failed"] += traced.failed + len(problems)
        doc["failures"] += traced.failures + problems
        doc["layers"] = split["layers"]
        doc["profiled_s"] = split["total_s"]
        doc["counters"]["trace_overhead"] = sum(traced.cell_s) / doc["pass_measured_s"]
    doc["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "platform": platform.platform()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
