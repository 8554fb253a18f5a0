"""Real-cell benchmark: scheduled runs through the public Session API.

    python bench/run.py [--workload NAME ...] [--seed S] [--seconds N]
                        [--trace 0|1 | --trace-layers] [--smoke] [--json OUT]
    python bench/run.py --compare PARENT_DIR CHANGE_DIR [--json OUT]

Each workload runs in its own fresh, single-threaded worker process
(``worker.py``) with the trace, result and snapshot caches in a scratch
directory under ``.bench_work/`` that is removed afterwards.  The run
prints every end-to-end metric by name and unit; with ``--trace 1`` it
prints the per-layer metrics instead, from one extra cProfile'd pass.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any cell fails a correctness gate.

``--json OUT`` writes the full result document.  ``--compare`` reads two
directories of such documents (the parent's runs and the change's runs,
paired by file name order) and judges every (workload, metric) row.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the end-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen before a
#: change counts as a regression.
END_TO_END = (
    ("events_per_s", "events/s", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_mu_mean", "ratio", "higher", 0.15),
)

#: per-pass counters of the untraced run: (name, unit)
COUNTERS = (
    ("machine.event.events", "count"),
    ("machine.network.messages", "count"),
    ("machine.network.bytes", "B"),
    ("machine.network.task_hops", "count"),
    ("balancers.nonlocal_frac", "fraction"),
    ("core.rips.system_phases", "count"),
    ("core.rips.migrated_tasks", "count"),
    ("core.mwa.plan_cost", "task-hops"),
    ("faults.retransmits", "count"),
    ("faults.drops", "count"),
    ("faults.detected_dead", "count"),
    ("membership.epochs", "count"),
    ("obs.records", "count"),
    ("obs.attribution_s", "s"),
    ("obs.export_s", "s"),
    ("snapshot.captures", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.capture_s", "s"),
    ("snapshot.restore_s", "s"),
    ("session.prepare_s", "s"),
    ("session.run_s", "s"),
    ("trace_overhead", "x"),
)

#: the per-layer metrics: (name, unit)
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit)
    for layer in layers.LAYERS
    for stat, unit in (("self_s", "s"), ("share", "fraction"), ("calls_in", "count"))
) + COUNTERS

#: a worker that runs longer than this is killed; the run fails
WORKER_TIMEOUT_S = 170

#: a gain needs at least this many alternating parent/change pairs
MIN_PAIRS = 10


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def worker_env(work: Path) -> dict:
    """The worker's environment: caches in ``work``, warm-start off,
    small scale, one thread, a fixed hash seed."""
    env = dict(os.environ)
    env.pop("REPRO_WARM_START", None)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH")))),
        PYTHONHASHSEED="0",
        REPRO_SCALE="small",
        REPRO_JOBS="1",
        REPRO_TRACE_CACHE=str(work / "traces"),
        REPRO_RESULT_CACHE=str(work / "results"),
        REPRO_SNAPSHOT_CACHE=str(work / "snapshots"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(name: str, args) -> dict:
    """Run workload ``name`` in a fresh worker; returns its document."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(work)]
    cmd += ["--trace"] if args.trace else []
    cmd += ["--smoke"] if args.smoke else []
    try:
        proc = subprocess.run(cmd, env=worker_env(work), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: worker exited with {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["metrics"] = end_to_end(doc)
    if "layers" in doc:
        doc["per_layer"] = per_layer(doc)
    return doc


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(doc: dict) -> dict:
    """The end-to-end metrics of one worker document, each with the
    quartiles and count of the samples its value summarises."""
    samples = {
        "events_per_s": (doc["events"] / doc["pass_s"],
                         [doc["events"] / s for s in doc["pass_s_each"]]),
        "setup_s": (statistics.median(doc["setup_s"]), doc["setup_s"]),
        "peak_rss_mb": (doc["peak_rss_mb"], [doc["peak_rss_mb"]]),
        "sim_mu_mean": (doc["sim_mu_mean"], [doc["sim_mu_mean"]]),
    }
    out = {}
    for name, unit, _better, _bound in END_TO_END:
        value, values = samples[name]
        q1, _med, q3 = quartiles(values)
        out[name] = {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
    return out


def per_layer(doc: dict) -> dict:
    """The per-layer metrics of one traced worker document."""
    values = dict(doc["counters"])
    for layer, split in doc["layers"].items():
        for stat, value in split.items():
            values[f"{layer}.{stat}"] = value
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def print_report(docs: dict, trace: bool) -> None:
    for name, doc in docs.items():
        print(f"== {name}: {doc['cells']} cells/pass, {len(doc['pass_s_each'])} timed "
              f"passes, {len(doc['setup_s'])} set-ups, sim_digest {doc['sim_digest']}")
        for metric, m in doc["metrics"].items():
            print(f"  {metric:<14} {m['value']:>12.4f} {m['unit']:<8} "
                  f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n={m['n']}]")
        print(f"  {'failed_frac':<14} {doc['failed'] / doc['attempted']:>12.4f} fraction "
              f"({doc['failed']} of {doc['attempted']} cells)")
        print(f"  {'cells_per_s':<14} {doc['cells'] / doc['pass_s']:>12.4f} cells/s")
        print(f"  as measured, host {doc['host_slowdown']:.2f}x nominal: "
              f"{doc['events'] / doc['pass_measured_s']:.1f} events/s, "
              f"{doc['cells'] / doc['pass_measured_s']:.4f} cells/s, "
              f"setup {statistics.median(doc['setup_measured_s']):.4f} s")
        for note in doc["redrawn"]:
            print(f"  REDRAWN {note}")
        for failure in doc["failures"][:20]:
            print(f"  FAILED {failure}")
        if trace:
            print(f"  {'layer':<20} {'self_s':>9} {'share':>7} {'calls_in':>10}")
            for layer, split in doc["layers"].items():
                print(f"  {layer:<20} {split['self_s']:>9.4f} {split['share']:>7.1%} "
                      f"{split['calls_in']:>10}")
            for metric, unit in COUNTERS:
                print(f"  {metric:<28} {doc['per_layer'][metric]['value']:>14.6g} {unit}")


def result_line(docs: dict, trace: bool) -> dict:
    """The last stdout line.  With several workloads every metric name
    is prefixed with ``<workload>/``."""
    prefix = len(docs) > 1
    metrics = {}
    for name, doc in docs.items():
        chosen = doc["per_layer"] if trace else doc["metrics"]
        for metric, m in chosen.items():
            key = f"{name}/{metric}" if prefix else metric
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(doc["failed"] == 0 for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# comparing (choosing-metrics section 8)
# ----------------------------------------------------------------------
def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one (workload, metric) row over paired runs.

    *improved*: the change wins at least nine tenths of the pairs (ties
    count for neither), there are at least ``MIN_PAIRS`` pairs, and the
    medians differ by more than the parent's quartile distance.
    *unresolved*: the parent's own spread is wider than the bound and
    not every change run beats every parent run.  *worse*: the change's
    median is worse than the parent's by more than the bound.
    Otherwise *within bound*.
    """
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    _cq1, cmed, _cq3 = quartiles(change)
    pairs = min(len(parent), len(change))
    if (pairs >= MIN_PAIRS and wins(parent, change, better) >= 0.9 * pairs
            and sign * (cmed - pmed) > pq3 - pq1):
        return "improved"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not every_run_better:
        return "unresolved"
    if pmed and sign * (pmed - cmed) / abs(pmed) > bound:
        return "worse"
    return "within bound"


def load_runs(directory: Path) -> list[dict]:
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise SystemExit(f"{directory}: no result documents (*.json)")
    return [json.loads(p.read_text()) for p in paths]


def compare(parent_dir: Path, change_dir: Path) -> dict:
    parents, changes = load_runs(parent_dir), load_runs(change_dir)
    n = min(len(parents), len(changes))
    parents, changes = parents[:n], changes[:n]
    names = [w for w in parents[0]["workloads"]
             if all(w in d["workloads"] for d in parents + changes)]
    rows = []
    for w in names:
        for metric, _unit, better, bound in END_TO_END:
            p = [d["workloads"][w]["metrics"][metric]["value"] for d in parents]
            c = [d["workloads"][w]["metrics"][metric]["value"] for d in changes]
            rows.append({
                "workload": w, "metric": metric, "better": better, "bound": bound,
                "parent": quartiles(p), "change": quartiles(c),
                "wins": wins(p, c, better),
                "pairs": n, "verdict": judge(p, c, better, bound),
            })
        digests = {d["workloads"][w]["sim_digest"] for d in parents + changes}
        rows.append({"workload": w, "metric": "sim_digest", "pairs": n,
                     "verdict": "same" if len(digests) == 1 else "different"})
    return {"pairs": n, "rows": rows, "host": parents[0].get("host")}


def print_comparison(result: dict) -> None:
    n = result["pairs"]
    if n < MIN_PAIRS:
        print(f"note: {n} pairs; a gain needs at least {MIN_PAIRS}")
    print(f"{'workload':<17} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for r in result["rows"]:
        if "parent" not in r:
            print(f"{r['workload']:<17} {r['metric']:<12} {'':>72} {r['verdict']}")
            continue
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<17} {r['metric']:<12} "
              f"{p[1]:>12.4f} [{p[0]:.4f}, {p[2]:.4f}] "
              f"{c[1]:>12.4f} [{c[0]:.4f}, {c[2]:.4f}] "
              f"{r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="machine seed offset and fault-plan seed (default 0)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed passes run until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a cProfile'd pass and report per-layer metrics")
    ap.add_argument("--trace-layers", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and one timed pass per workload")
    ap.add_argument("--json", type=Path, help="write the full result document here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"),
                    help="judge two directories of --json documents")
    args = ap.parse_args(argv)

    if args.compare:
        result = compare(*args.compare)
        print_comparison(result)
        if args.json:
            args.json.write_text(json.dumps(result, indent=1) + "\n")
        return 1 if any(r["verdict"] == "worse" for r in result["rows"]) else 0

    # SIGTERM unwinds like an exception, so a running worker is killed
    # and waited for instead of being left behind
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import NAMES

    names = args.workload or list(NAMES)
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {', '.join(NAMES)}")
    docs = {name: run_worker(name, args) for name in names}
    print_report(docs, bool(args.trace))
    if args.json:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke, "host": next(iter(docs.values()))["host"],
             "workloads": docs}, indent=1) + "\n")
    line = result_line(docs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
