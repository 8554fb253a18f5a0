"""Loadtest report emission + the ``--check`` regression gate.

The report is a ``repro.report/1`` envelope (kind ``"loadtest"``) whose
``data`` carries a versioned payload (:data:`LOADTEST_DATA_VERSION`):
the campaign config, one outcome block per driven target, and the
attribution / memory-audit extras.  ``BENCH_loadtest.json`` at the repo
root commits a baseline of exactly this shape; :func:`check_loadtest`
re-runs the baseline's own config and gates the measurement against it,
mirroring ``bench --check``:

* **structural gates** (the real contract): every session completes,
  none fail, p50/p99 latency and events/sec are non-zero, the cache sees
  hits when the mix repeats, the attribution rollup reconciles to a 0.0
  delta;
* **throughput/latency gates** (generous — shared CI runners are noisy):
  events/sec may not fall below ``tolerance_events`` × baseline, p99
  cell latency may not exceed ``tolerance_p99`` × baseline.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

from repro.obs.metrics import make_report, validate_report

from .harness import LoadtestConfig, run_loadtest

__all__ = [
    "DEFAULT_LOADTEST_PATH",
    "LOADTEST_DATA_VERSION",
    "TOLERANCE_EVENTS",
    "TOLERANCE_P99",
    "check_loadtest",
    "emit_loadtest",
    "format_loadtest",
    "make_loadtest_report",
]

LOADTEST_DATA_VERSION = "repro.loadtest/1"

DEFAULT_LOADTEST_PATH = Path(__file__).resolve().parents[3] / "BENCH_loadtest.json"

#: measured events/sec must stay above this fraction of the baseline
TOLERANCE_EVENTS = 0.10
#: measured p99 cell latency must stay below this multiple of the baseline
TOLERANCE_P99 = 10.0


def make_loadtest_report(config: LoadtestConfig, outcome: dict) -> dict:
    """Wrap a :func:`~repro.loadtest.harness.run_loadtest` outcome in the
    shared envelope, stamped with environment provenance."""
    data = {
        "version": LOADTEST_DATA_VERSION,
        "config": config.to_dict(),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        **outcome,
    }
    return make_report("loadtest", data)


def emit_loadtest(config: LoadtestConfig, target: str = "runner",
                  url: Optional[str] = None,
                  path: Optional[Path] = None) -> dict:
    """Run a campaign, write the report JSON, return the envelope."""
    report = make_loadtest_report(config, run_loadtest(config, target, url))
    out = Path(path) if path is not None else DEFAULT_LOADTEST_PATH
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _structural_failures(report: dict) -> list[str]:
    """The non-negotiable gates: a loadtest that "passed" with zero
    latency or zero throughput measured nothing."""
    failures = []
    data = report["data"]
    if data.get("version") != LOADTEST_DATA_VERSION:
        failures.append(
            f"report version {data.get('version')!r} != {LOADTEST_DATA_VERSION}")
        return failures
    targets = data.get("targets") or {}
    if not targets:
        failures.append("no targets driven")
    for name, out in targets.items():
        if out["failed"]:
            failures.append(f"{name}: {out['failed']} session(s) failed")
        if out["completed"] != out["sessions"]:
            failures.append(
                f"{name}: only {out['completed']}/{out['sessions']} completed")
        lat = out.get("latency_s") or {}
        if not (lat.get("p50", 0) > 0 and lat.get("p99", 0) > 0):
            failures.append(f"{name}: latency percentiles are zero/absent")
        if not out.get("events_per_sec", 0) > 0:
            failures.append(f"{name}: events/sec under contention is zero")
        cfg = data.get("config") or {}
        mix = len(cfg.get("workloads", [])) * len(cfg.get("strategies", []))
        # churn attaches a distinct fault plan per cell, so repeats never
        # share a content hash — zero result-cache hits is the expected
        # shape there, not a broken cache
        if cfg.get("sessions", 0) > mix \
                and not cfg.get("churn", False) \
                and out["cache"]["result_hits"] == 0:
            failures.append(
                f"{name}: repeating mix produced zero result-cache hits")
    attribution = data.get("attribution")
    if attribution is not None and not attribution["reconcile"]["ok"]:
        failures.append(
            f"attribution rollup does not reconcile: "
            f"delta={attribution['reconcile']['delta_s']}")
    return failures


def check_loadtest(path: Optional[Path] = None,
                   report: Optional[dict] = None) -> dict:
    """Gate a fresh measurement against the committed baseline.

    Loads ``BENCH_loadtest.json`` (or ``path``), re-runs the campaign
    with the baseline's own config/targets unless a ``report`` is given,
    and compares.  Returns the same shape ``check_bench`` does:
    ``{"ok", "baseline", "measured", "ratios", "failures", ...}``.
    Never rewrites the baseline.
    """
    base_path = Path(path) if path is not None else DEFAULT_LOADTEST_PATH
    if not base_path.exists():
        return {"ok": False, "path": str(base_path),
                "failures": [f"no baseline at {base_path}"]}
    baseline = validate_report(
        json.loads(base_path.read_text()), kind="loadtest")
    config = LoadtestConfig.from_dict(baseline["data"]["config"])
    base_targets = baseline["data"]["targets"]
    if report is None:
        target = ("both" if len(base_targets) > 1
                  else next(iter(base_targets)))
        report = make_loadtest_report(
            config, run_loadtest(config, target=target))
    else:
        validate_report(report, kind="loadtest")

    failures = _structural_failures(report)
    ratios: dict = {}
    for name, base_out in base_targets.items():
        out = report["data"]["targets"].get(name)
        if out is None:
            failures.append(f"target {name!r} missing from measurement")
            continue
        base_eps = base_out.get("events_per_sec") or 0.0
        eps = out.get("events_per_sec") or 0.0
        if base_eps > 0:
            ratio = eps / base_eps
            ratios[f"{name}.events_per_sec"] = round(ratio, 3)
            if ratio < TOLERANCE_EVENTS:
                failures.append(
                    f"{name}: events/sec regressed to {ratio:.0%} of the "
                    f"baseline ({eps:,.0f} vs {base_eps:,.0f}; "
                    f"floor {TOLERANCE_EVENTS:.0%})")
        base_p99 = (base_out.get("latency_s") or {}).get("p99") or 0.0
        p99 = (out.get("latency_s") or {}).get("p99") or 0.0
        if base_p99 > 0 and p99 > 0:
            ratio = p99 / base_p99
            ratios[f"{name}.p99_latency"] = round(ratio, 3)
            if ratio > TOLERANCE_P99:
                failures.append(
                    f"{name}: p99 latency grew {ratio:.1f}x over the "
                    f"baseline ({p99:.3f}s vs {base_p99:.3f}s; "
                    f"ceiling {TOLERANCE_P99:g}x)")
    return {
        "ok": not failures,
        "path": str(base_path),
        "tolerance": {"events_frac": TOLERANCE_EVENTS,
                      "p99_factor": TOLERANCE_P99},
        "baseline": {
            name: {"events_per_sec": out.get("events_per_sec"),
                   "p99_latency_s": (out.get("latency_s") or {}).get("p99")}
            for name, out in base_targets.items()
        },
        "measured": {
            name: {"events_per_sec": out.get("events_per_sec"),
                   "p99_latency_s": (out.get("latency_s") or {}).get("p99")}
            for name, out in report["data"]["targets"].items()
        },
        "ratios": ratios,
        "failures": failures,
    }


def format_loadtest(report: dict) -> str:
    """Human-facing summary tables of a loadtest envelope."""
    from repro.metrics.report import format_table

    data = report["data"]
    rows = []
    for name, out in sorted(data["targets"].items()):
        lat = out.get("latency_s") or {}
        wait = out.get("wait_s") or {}
        rows.append({
            "target": name,
            "done": f"{out['completed']}/{out['sessions']}",
            "p50 (s)": f"{lat.get('p50', 0):.3f}",
            "p90 (s)": f"{lat.get('p90', 0):.3f}",
            "p99 (s)": f"{lat.get('p99', 0):.3f}",
            "wait p99": f"{wait.get('p99', 0):.3f}",
            "ev/s": f"{out['events_per_sec']:,.0f}",
            "hits": out["cache"]["result_hits"],
            "429": out["errors"]["r429"],
            "503": out["errors"]["r503"],
        })
    cfg = data["config"]
    title = (f"loadtest: {cfg['sessions']} sessions x "
             f"{cfg['concurrency']} {cfg['arrival']}-loop workers, "
             f"mix {len(cfg['workloads'])}w x {len(cfg['strategies'])}s, "
             f"seed {cfg['seed']}")
    lines = [format_table(rows, title=title)]
    attribution = data.get("attribution")
    if attribution:
        subs = "  ".join(f"{k}={v:.4f}s" for k, v in
                         sorted(attribution["subsystems"].items()))
        rec = attribution["reconcile"]
        lines.append(f"  attribution: {subs}")
        lines.append(f"  rollup reconciles: delta={rec['delta_s']}s "
                     f"over {attribution['spans']} spans "
                     f"({'ok' if rec['ok'] else 'MISMATCH'})")
    mem = data.get("mem_audit")
    if mem:
        from repro.obs.memory import format_memory_audit

        lines.append(format_memory_audit(mem))
    return "\n".join(lines) + "\n"
