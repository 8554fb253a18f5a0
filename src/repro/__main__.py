"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1`` / ``table2`` / ``table3`` / ``fig5``
    Regenerate the paper's tables/figure and print them.
``fig4``
    Print the Figure-4 normalized-cost series.
``run``
    Run one workload under one strategy and print the metrics row.
    ``--checkpoint-every N`` makes the run crash-durable (state saved
    every N events); ``--resume FILE`` continues an interrupted run,
    bit-identical to never having stopped.
``trace``
    Run one workload with the tracer attached and write a Chrome/
    Perfetto JSON (or raw JSONL) trace; ``--report`` adds the per-node
    phase-breakdown text.
``topologies``
    RIPS across mesh/tree/hypercube/crossbar for one workload.
``workloads``
    List the available workload keys at the chosen scale.
``cache``
    Inspect or clear the on-disk caches: per-namespace blob-store
    totals (results, checkpoints, sessions) plus cached
    workload traces; ``clear --namespace X`` drops one namespace.
``serve``
    HTTP/WebSocket scheduling service on the Session API: submit wire-
    format RunRequests, stream live progress, pause/resume/fork running
    sessions; ``--smoke`` runs a one-cell self-test and exits.
``bench``
    Event-loop microbenchmark; writes ``BENCH_events_per_sec.json``.
    ``--check`` compares against the committed baseline instead (exit 1
    on a >10% regression), gates checkpoint overhead on the chain
    shape, and never rewrites the baseline.
``faults``
    Strategy degradation under injected faults (fig_faults): sweeps
    drop rates and fail-stop crash counts over a Table-I workload;
    ``--audit`` additionally checks task conservation per cell.
``chaos``
    Seeded random fault plans against RIPS: checks the invariants of
    every run and shrinks each failing plan to a minimal reproducer.
    ``--churn`` draws elastic-membership plans (joins, leaves,
    elections and crashes), ``--replay PLAN`` re-runs one plan, and
    ``--service`` chaos-tests the service layer instead (SIGKILL,
    hung and poisoned slice workers, blob-store faults); ``--smoke``
    runs the CI-sized campaign.

Grid commands print the executor's accounting line (cells, cache hits,
retries) on stderr after the table.

``cache stats``, ``bench``, and ``chaos`` accept ``--json``:
machine-readable output on stdout in the shared ``repro.report/1``
envelope (:func:`repro.obs.metrics.make_report`); human tables and
progress lines move to stderr.

Shared flags come from parent parsers: every experiment command accepts
``--scale {small,paper}`` (default: ``$REPRO_SCALE`` or ``small``), and
grid commands (``table1``-``table3``, ``fig4``, ``fig5``,
``topologies``) accept ``--jobs N`` (default ``$REPRO_JOBS`` or serial;
0 = one worker per CPU), ``--no-cache``, and ``--preempt`` (timed-out
cells checkpoint and resume instead of restarting).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import (
    STRATEGY_ORDER,
    current_scale,
    run_fig4,
    table1_text,
    table2_text,
    table3_text,
    topologies_text,
    workload,
    workloads,
)
from repro.experiments.fig4 import PAPER_SIZES, PAPER_WEIGHTS
from repro.experiments.faults import (
    DEFAULT_CRASH_AT,
    DEFAULT_DROP_RATES,
    DEFAULT_FAULT_SEED,
)
from repro.metrics import format_series, format_table, percent, seconds


def _print_report(kind: str, data: dict) -> None:
    """Emit a ``repro.report/1`` envelope on stdout (the ``--json`` path
    shared by cache/bench/chaos)."""
    import json

    from repro.obs.metrics import make_report

    print(json.dumps(make_report(kind, data), indent=2, sort_keys=True))


def _run_grid(reqs, args):
    """Execute a request grid and surface the executor accounting
    (cache hits / executed / retried / failed) on stderr."""
    from repro.runner import run_requests_report

    report = run_requests_report(
        reqs, jobs=args.jobs, cache=args.cache,
        preempt=getattr(args, "preempt", False))
    print(report.summary(), file=sys.stderr)
    return report


# ----------------------------------------------------------------------
# shared parent parsers (argparse parents=: one definition per flag)
# ----------------------------------------------------------------------
def _jobs_arg(value: str) -> str:
    from repro.runner import resolve_jobs

    try:
        resolve_jobs(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {value!r} (want an integer or 'auto')")
    return value


def _scale_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--scale", choices=("small", "paper"), default=None,
                   help="workload sizes (default: $REPRO_SCALE or small)")
    return p


def _nodes_parent(default: int = 32) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--nodes", type=int, default=default,
                   help=f"machine size (default {default})")
    return p


def _seed_parent(default: int = 1234) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=default,
                   help=f"simulation seed (default {default})")
    return p


def _grid_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", default=None, type=_jobs_arg,
                   help="parallel grid cells (int, or 'auto' = one per CPU; "
                        "default: $REPRO_JOBS or serial)")
    p.add_argument("--no-cache", dest="cache", action="store_false",
                   default=True,
                   help="re-simulate every cell instead of reusing the "
                        "on-disk result cache")
    p.add_argument("--preempt", action="store_true", default=False,
                   help="cells that hit the per-cell timeout checkpoint and "
                        "resume on the retry pass instead of restarting")
    return p


# ----------------------------------------------------------------------
# lenient name resolution (trace/run accept near-miss spellings)
# ----------------------------------------------------------------------
def _resolve_workload_key(name: str, scale: str | None) -> str:
    keys = [s.key for s in workloads(scale)]
    if name in keys:
        return name
    norm = name.lower()
    if norm.startswith("nqueens"):
        norm = norm[1:]  # nqueens[-N] -> queens[-N]
    matches = [k for k in keys if k == norm or k.startswith(norm)]
    if matches:
        if matches[0] != name:
            print(f"note: workload {name!r} -> {matches[0]}", file=sys.stderr)
        return matches[0]
    raise SystemExit(
        f"unknown workload {name!r}; available: {', '.join(keys)}")


def _resolve_strategy(name: str) -> str:
    for s in STRATEGY_ORDER:
        if s.lower() == name.lower():
            return s
    raise SystemExit(
        f"unknown strategy {name!r}; available: {', '.join(STRATEGY_ORDER)}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_table1(args) -> int:
    from repro.experiments import table1_requests

    rep = _run_grid(table1_requests(num_nodes=args.nodes, scale=args.scale), args)
    print(table1_text(rep.results, args.nodes))
    return 0


def _cmd_table2(args) -> int:
    from repro.experiments import table2_requests

    rep = _run_grid(table2_requests(num_nodes=args.nodes, scale=args.scale), args)
    print(table2_text({m.workload: m.efficiency for m in rep.results}, args.nodes))
    return 0


def _cmd_table3(args) -> int:
    from repro.experiments import table3_requests

    rep = _run_grid(
        table3_requests(num_nodes_list=tuple(args.nodes), scale=args.scale), args)
    print(table3_text(rep.results))
    return 0


def _cmd_topologies(args) -> int:
    from repro.experiments import topology_grid_requests

    rep = _run_grid(
        topology_grid_requests(args.workload, num_nodes=args.nodes,
                               seed=args.seed, scale=args.scale), args)
    print(topologies_text(rep.results))
    return 0


def _cmd_cache(args) -> int:
    from repro.apps.cache import clear_trace_cache, trace_cache_stats
    from repro.runner import RESULT_CACHE_VERSION
    from repro.snapshot import SNAPSHOT_VERSION
    from repro.store import NAMESPACES, LocalDirStore

    store = LocalDirStore()
    versions = {"results": RESULT_CACHE_VERSION}
    if args.action == "clear":
        if args.namespace:
            removed = (clear_trace_cache() if args.namespace == "traces"
                       else store.clear(args.namespace))
            print(f"removed {removed} {args.namespace} entries")
            return 0
        parts = [f"{store.clear(ns)} {ns}" for ns in NAMESPACES]
        if args.traces:
            parts.append(f"{clear_trace_cache()} traces")
        print("removed " + ", ".join(parts))
        return 0
    rows = []
    for ns in NAMESPACES:
        s = store.stats(ns)
        rows.append({"cache": ns, "dir": s["dir"], "entries": s["entries"],
                     "bytes": s["bytes"],
                     "version": versions.get(ns, SNAPSHOT_VERSION)})
    ts = trace_cache_stats()
    rows.append({"cache": "traces", "dir": ts["dir"],
                 "entries": ts["entries"], "bytes": ts["bytes"],
                 "version": ts["format_version"]})
    if args.json:
        _print_report("cache.stats", {"caches": rows})
    else:
        print(format_table(rows, title="On-disk caches"))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, serve, serve_background

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        quota_tokens=args.quota_tokens,
        quota_refill=args.quota_refill,
        slice_events=args.slice_events,
        store_root=args.store_root,
        use_result_cache=args.cache,
        journal=not args.no_journal,
        checkpoint_every_slices=args.checkpoint_every_slices,
        slice_deadline=args.slice_deadline,
        slice_retries=args.slice_retries,
        retry_seed=args.retry_seed,
    )
    if args.smoke:
        # Self-contained liveness probe (the CI service-smoke job): start
        # a server, run one small cell end to end, stream its frames.
        from repro.runner import RunRequest
        from repro.service import ServiceClient

        with serve_background(config) as bg:
            client = ServiceClient(bg.url, tenant="smoke")
            req = RunRequest(workload=args.smoke_workload, strategy="RIPS",
                             num_nodes=8, seed=1, scale="small")
            doc = client.submit(req)
            frames = list(client.stream(doc["id"], timeout=120))
            final = client.wait(doc["id"], timeout=120)
            stats = client.stats()
        ok = final["state"] == "done" and any(
            f.get("type") in ("progress", "result") for f in frames)
        print(f"serve smoke: {final['state']}, {len(frames)} frame(s) "
              f"streamed, T={final.get('metrics', {}).get('T')}, "
              f"submitted={stats['submitted']}")
        return 0 if ok else 1
    try:
        asyncio.run(serve(config, port_file=args.port_file))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_bench(args) -> int:
    from repro.runner.bench import check_bench, emit_bench

    if args.check:
        result = check_bench(path=args.out, events=args.events, reps=args.reps)
        if args.json:
            _print_report("bench.check", result)
            return 0 if result["ok"] else 1
        for k in sorted(result["ratios"]):
            flag = " REGRESSION" if k in result["failures"] else ""
            print(f"{k:>6s}: {result['measured'][k]:>9,} events/sec "
                  f"({result['ratios'][k]:.2f}x baseline "
                  f"{result['baseline'][k]:,}){flag}")
        ck = result["checkpoint"]
        if ck is not None:
            flag = (" REGRESSION"
                    if "checkpoint_overhead" in result["failures"] else "")
            print(f"  ckpt: {ck['with_roots']:>9,} events/sec "
                  f"({ck['ratio']:.2f}x the plain chain "
                  f"{ck['plain']:,}){flag}")
        if not result["ok"]:
            tol = result["tolerance"]
            print(f"FAIL: throughput regressed more than {tol:.0%} below "
                  f"the committed baseline", file=sys.stderr)
            return 1
        print("OK: within tolerance of the committed baseline")
        return 0
    report = emit_bench(path=args.out,
                        events=args.events or 200_000,
                        reps=args.reps or 5)
    if args.json:
        _print_report("bench", report)
        return 0
    rates = report["events_per_sec"]
    speed = report["speedup_vs_seed"]
    print(f"chain : {rates['chain']:>9,} events/sec ({speed['chain']}x seed)")
    print(f"loaded: {rates['loaded']:>9,} events/sec ({speed['loaded']}x seed)")
    return 0


def _cmd_fig5(args) -> int:
    import repro.experiments.fig5 as fig5_mod

    rep = _run_grid(fig5_mod.build_requests(num_nodes=args.nodes,
                                            scale=args.scale), args)
    print(fig5_mod.render(rep.results))
    return 0


def _cmd_faults(args) -> int:
    import repro.experiments.faults as faults_mod

    keys = None
    if args.workload:
        keys = [_resolve_workload_key(args.workload, args.scale)]
    reqs = faults_mod.faults_requests(
        workload_keys=keys,
        num_nodes=args.nodes,
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        drop_rates=tuple(args.drops),
        crash_counts=tuple(args.crashes),
        crash_at=args.crash_at,
        detectors=tuple(args.detectors),
        partition_counts=tuple(args.partitions),
        audit=args.audit,
    )
    rep = _run_grid(reqs, args)
    print(faults_mod.faults_text(rep.results))
    if args.audit:
        from repro.faults import audit_conservation

        traces: dict = {}
        violations = 0
        for req, m in zip(reqs, rep.results):
            tkey = (req.workload, req.num_nodes)
            if tkey not in traces:
                traces[tkey] = workload(req.workload, req.scale).build(req.num_nodes)
            audit = audit_conservation(
                traces[tkey],
                m.extra.get("trace_records", ()),
                m.extra.get("lost_task_ids", ()),
                m.extra.get("crashed_nodes", ()),
            )
            if not audit.ok:
                violations += 1
                print(f"{req.label()}: {audit.summary()}")
        print(f"conservation audit: {len(reqs) - violations}/{len(reqs)} cells ok")
        if violations:
            return 1
    return 0


def _cmd_chaos(args) -> int:
    """Seeded random fault plans vs RIPS, with invariant checks + shrinking."""
    import json

    from repro.faults.chaos import run_case, run_chaos, scheduled_fault_count
    from repro.faults.plan import FaultPlan

    # with --json the envelope owns stdout; progress lines move to stderr
    progress_to = sys.stderr if args.json else sys.stdout

    if args.service:
        # Point the chaos discipline at the service layer instead of the
        # simulated machine: SIGKILL the server, hang/poison workers,
        # inject blob-store faults; assert recovery invariants.
        from repro.faults.service_chaos import run_service_chaos

        rep = run_service_chaos(
            seed=args.seed, smoke=args.smoke,
            progress=lambda c: print(c.summary(), flush=True,
                                     file=progress_to))
        failures = rep.failures()
        if args.json:
            _print_report("chaos.service", {
                "ok": rep.ok, "seed": args.seed,
                "scenarios": [{"name": c.name, "ok": c.ok,
                               "violations": list(c.violations)}
                              for c in rep.cases],
            })
            return 0 if rep.ok else 1
        print(f"service chaos: {len(rep.cases) - len(failures)}/"
              f"{len(rep.cases)} scenario(s) ok (seed {args.seed})")
        for case in failures:
            for v in case.violations:
                print(f"  {case.name}: {v}")
        return 0 if rep.ok else 1

    if args.replay is not None:
        path = Path(args.replay)
        text = path.read_text() if path.exists() else args.replay
        plan = FaultPlan.from_canonical(json.loads(text))
        case = run_case(plan, num_nodes=args.nodes)
        if args.json:
            _print_report("chaos.replay", {
                "ok": case.ok, "summary": case.summary(),
                "violations": list(case.violations),
                "plan": plan.canonical(),
            })
            return 0 if case.ok else 1
        print(case.summary())
        for v in case.violations:
            print(f"  {v}")
        return 0 if case.ok else 1

    cases = 8 if args.smoke else args.cases
    rep = run_chaos(cases, args.seed, num_nodes=args.nodes,
                    churn=args.churn,
                    shrink=not args.no_shrink,
                    progress=lambda c: print(c.summary(), flush=True,
                                             file=progress_to))
    failures = rep.failures()
    if args.json:
        _print_report("chaos", {
            "ok": rep.ok, "seed": args.seed, "churn": args.churn,
            "cases": len(rep.cases),
            "failures": [{"index": c.index,
                          "violations": list(c.violations)}
                         for c in failures],
            "reproducers": [
                {"index": index, "plan": shrunk.canonical(), "evals": spent,
                 "scheduled_faults": scheduled_fault_count(shrunk)}
                for index, shrunk, spent in rep.reproducers],
        })
        return 0 if rep.ok else 1
    print(f"chaos: {len(rep.cases) - len(failures)}/{len(rep.cases)} cases ok "
          f"(seed {args.seed})")
    for case in failures:
        for v in case.violations:
            print(f"  case {case.index}: {v}")
    for index, shrunk, spent in rep.reproducers:
        canon = json.dumps(shrunk.canonical())
        print(f"  case {index} shrunk to {scheduled_fault_count(shrunk)} "
              f"scheduled fault(s) in {spent} evals: {shrunk.describe()}")
        print(f"    replay with: python -m repro chaos --replay '{canon}'")
    return 0 if rep.ok else 1


def _cmd_fig4(args) -> int:
    sizes = args.sizes or list(PAPER_SIZES)
    series = run_fig4(sizes=sizes, weights=PAPER_WEIGHTS, cases=args.cases,
                      seed=args.seed, jobs=args.jobs, cache=args.cache)
    print("Figure 4: normalized communication cost of MWA, "
          f"{args.cases} cases per point")
    for n in sizes:
        points = series[n]
        print(format_series(f"{n} procs", PAPER_WEIGHTS,
                            [p.normalized_cost for p in points]))
    return 0


def _cmd_run(args) -> int:
    from repro.session import Session

    if args.resume:
        if args.workload is not None:
            raise SystemExit("--resume continues a checkpointed run; "
                             "don't also name a workload")
        from repro.snapshot import Snapshot

        sess = Session.restore(Snapshot.load(args.resume))
        ckpt_path = Path(args.checkpoint) if args.checkpoint else Path(args.resume)
    else:
        if args.workload is None:
            raise SystemExit("name a workload (see `workloads`) or --resume "
                             "a checkpoint file")
        key = _resolve_workload_key(args.workload, args.scale)
        sess = Session(key, strategy=_resolve_strategy(args.strategy),
                       num_nodes=args.nodes, seed=args.seed,
                       scale=current_scale(args.scale))
        ckpt_path = Path(args.checkpoint) if args.checkpoint \
            else Path(f"{key}.ckpt")

    if args.checkpoint_every:
        # Crash-durable run: simulate in slices, checkpointing between
        # them; an interrupted run continues with `run --resume <file>`.
        saved = 0
        while (m := sess.run(max_events=args.checkpoint_every)) is None:
            sess.checkpoint().save(ckpt_path)
            saved += 1
        print(f"checkpointed {saved} time(s) to {ckpt_path}", file=sys.stderr)
    else:
        m = sess.run()
    if args.checkpoint_every or args.resume:
        # the run finished, so any checkpoint on disk is stale state
        ckpt_path.unlink(missing_ok=True)

    rows = [
        {
            "workload": m.extra.get("workload_label", m.workload),
            "strategy": m.strategy,
            "N": m.num_nodes,
            "tasks": m.num_tasks,
            "nonlocal": m.nonlocal_tasks,
            "Th": seconds(m.Th),
            "Ti": seconds(m.Ti),
            "T": seconds(m.T),
            "mu": percent(m.efficiency),
            "speedup": f"{m.speedup:.1f}x",
            "phases": m.system_phases or "-",
        }
    ]
    print(format_table(rows))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import Tracer, write_chrome_trace, write_jsonl_trace
    from repro.obs.attribution import phase_breakdown_text
    from repro.runner import RunRequest, execute_request

    key = _resolve_workload_key(args.workload, args.scale)
    strategy = _resolve_strategy(args.strategy)
    req = RunRequest(
        workload=key,
        strategy=strategy,
        num_nodes=args.nodes,
        seed=args.seed,
        scale=current_scale(args.scale),
        trace=True,
    )
    metrics = execute_request(req)
    tracer = Tracer.from_records(
        metrics.extra.pop("trace_records"),
        metrics.extra.pop("trace_dropped", 0),
    )
    out = Path(args.out)
    if args.format == "chrome":
        write_chrome_trace(tracer, out, label=req.label())
        hint = "chrome; open in ui.perfetto.dev"
    else:
        write_jsonl_trace(tracer, out)
        hint = "jsonl; one record per line, sim seconds"
    print(f"wrote {len(tracer)} trace records to {out} ({hint})")
    print(f"{key} under {strategy} on {args.nodes} nodes: "
          f"T={seconds(metrics.T)} Th={seconds(metrics.Th)} "
          f"Ti={seconds(metrics.Ti)} mu={percent(metrics.efficiency)} "
          f"phases={metrics.system_phases or '-'}")
    if args.report:
        print()
        print(phase_breakdown_text(tracer, metrics))
    return 0


def _cmd_workloads(args) -> int:
    rows = [
        {"key": s.key, "label": s.label, "kind": s.kind}
        for s in workloads(args.scale)
    ]
    print(format_table(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RIPS (Wu & Shu, SC'95) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scale, grid = _scale_parent(), _grid_parent()

    p = sub.add_parser("table1", help="strategy comparison (Table I)",
                       parents=[scale, _nodes_parent(32), grid])
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="optimal efficiencies (Table II)",
                       parents=[scale, _nodes_parent(32), grid])
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("table3", help="speedups on larger machines (Table III)",
                       parents=[scale, grid])
    p.add_argument("--nodes", type=int, nargs="+", default=[64, 128])
    p.set_defaults(fn=_cmd_table3)

    p = sub.add_parser("topologies",
                       help="RIPS across mesh/tree/hypercube/crossbar",
                       parents=[scale, _nodes_parent(32), _seed_parent(77), grid])
    p.add_argument("workload", help="workload key, e.g. queens-11")
    p.set_defaults(fn=_cmd_topologies)

    p = sub.add_parser("cache", help="inspect or clear the on-disk caches")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--namespace", default=None,
                   choices=("results", "checkpoints", "sessions", "traces"),
                   help="on clear: drop only this blob-store namespace "
                        "(default: all except traces)")
    p.add_argument("--traces", action="store_true",
                   help="on clear: also drop cached workload traces")
    p.add_argument("--json", action="store_true",
                   help="on stats: repro.report/1 envelope instead of the "
                        "table")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("serve",
                       help="HTTP/WebSocket scheduling service on the "
                            "Session API")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port (default 8787; 0 = ephemeral)")
    p.add_argument("--max-inflight", dest="max_inflight", type=int, default=8,
                   help="sessions simulating concurrently (default 8)")
    p.add_argument("--queue-depth", dest="queue_depth", type=int, default=32,
                   help="admitted-but-waiting sessions before submits get "
                        "429 (default 32)")
    p.add_argument("--quota-tokens", dest="quota_tokens", type=float,
                   default=120.0,
                   help="per-tenant token-bucket capacity; 1 token = 1 cell "
                        "(default 120)")
    p.add_argument("--quota-refill", dest="quota_refill", type=float,
                   default=2.0,
                   help="per-tenant refill rate, tokens/second (default 2)")
    p.add_argument("--slice-events", dest="slice_events", type=int,
                   default=50_000,
                   help="simulator events per progress slice (default 50000)")
    p.add_argument("--store-root", dest="store_root", default=None,
                   help="blob-store root (default: the shared .result_cache "
                        "or $REPRO_RESULT_CACHE)")
    p.add_argument("--no-cache", dest="cache", action="store_false",
                   default=True,
                   help="don't serve finished cells from / fill the shared "
                        "result cache")
    p.add_argument("--port-file", dest="port_file", default=None,
                   help="after binding, atomically write '<host> <port>' "
                        "here (for supervisors and the chaos harness; "
                        "pairs with --port 0)")
    p.add_argument("--no-journal", dest="no_journal", action="store_true",
                   help="disable the durable session journal (sessions die "
                        "with the process)")
    p.add_argument("--checkpoint-every-slices", dest="checkpoint_every_slices",
                   type=int, default=16,
                   help="auto-checkpoint running sessions every N slices so "
                        "crash recovery resumes instead of restarting "
                        "(0 = off; default 16)")
    p.add_argument("--slice-deadline", dest="slice_deadline", type=float,
                   default=300.0,
                   help="per-slice wall-clock deadline in seconds before the "
                        "supervisor abandons the worker and retries "
                        "(0 = no deadline; default 300)")
    p.add_argument("--slice-retries", dest="slice_retries", type=int,
                   default=2,
                   help="retries per failed/hung slice before the session "
                        "goes terminal 'failed' (default 2)")
    p.add_argument("--retry-seed", dest="retry_seed", type=int, default=None,
                   help="seed the retry-backoff jitter (deterministic "
                        "supervision; default: unseeded)")
    p.add_argument("--smoke", action="store_true",
                   help="instead of serving: start a throwaway server, run "
                        "one cell through it, stream its frames, exit "
                        "(the CI gate)")
    p.add_argument("--smoke-workload", dest="smoke_workload",
                   default="queens-10",
                   help="workload key for --smoke (default queens-10)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("bench",
                       help="event-loop microbenchmark -> BENCH_events_per_sec.json")
    p.add_argument("--events", type=int, default=None,
                   help="events per rep (default 200000; --check defaults to "
                        "what the baseline was measured with)")
    p.add_argument("--reps", type=int, default=None,
                   help="best-of reps (default 5; --check mirrors baseline)")
    p.add_argument("--out", default=None,
                   help="baseline path (default: repo-root BENCH_events_per_sec.json)")
    p.add_argument("--check", action="store_true",
                   help="compare against the baseline instead of rewriting it "
                        "(exit 1 on a >10%% regression) and gate checkpoint "
                        "overhead on the chain shape (<5%% when unused)")
    p.add_argument("--json", action="store_true",
                   help="repro.report/1 envelope on stdout instead of the "
                        "human summary")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("fig4", help="MWA vs optimal transfer cost (Figure 4)",
                       parents=[_seed_parent(7), grid])
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--sizes", type=int, nargs="*", default=None)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="normalized quality factors (Figure 5)",
                       parents=[scale, _nodes_parent(32), grid])
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("faults",
                       help="strategy degradation under injected faults "
                            "(fig_faults)",
                       parents=[scale, _nodes_parent(32), _seed_parent(1234),
                                grid])
    p.add_argument("workload", nargs="?", default=None,
                   help="workload key (default: the middle N-Queens size "
                        "at the chosen scale)")
    p.add_argument("--drops", type=float, nargs="*",
                   default=list(DEFAULT_DROP_RATES),
                   help="message drop-rate sweep (default: "
                        f"{' '.join(str(r) for r in DEFAULT_DROP_RATES)})")
    p.add_argument("--crashes", type=int, nargs="*", default=[1],
                   help="fail-stop crash-count sweep (default: 1)")
    p.add_argument("--crash-at", dest="crash_at", type=float,
                   default=DEFAULT_CRASH_AT,
                   help=f"sim time of the first crash (default {DEFAULT_CRASH_AT})")
    p.add_argument("--detectors", nargs="*", default=["oracle"],
                   choices=("oracle", "heartbeat"),
                   help="failure-detector sweep for crash/partition levels "
                        "(default: oracle)")
    p.add_argument("--partitions", type=int, nargs="*", default=[],
                   help="scheduled mesh-partition levels: each entry adds a "
                        "level with that many transient two-way cuts "
                        "(default: none)")
    p.add_argument("--fault-seed", dest="fault_seed", type=int,
                   default=DEFAULT_FAULT_SEED,
                   help=f"fault-RNG seed (default {DEFAULT_FAULT_SEED})")
    p.add_argument("--audit", action="store_true",
                   help="trace every cell and audit task conservation "
                        "(bypasses the result cache; exit 1 on violation)")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser("chaos",
                       help="seeded random fault plans vs RIPS: invariant "
                            "checks + ddmin shrinking of failures",
                       parents=[_nodes_parent(16)])
    p.add_argument("--cases", type=int, default=20,
                   help="number of generated plans (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; case i is reproducible at any "
                        "--cases count (default 0)")
    p.add_argument("--smoke", action="store_true",
                   help="quick 8-case run (the CI gate)")
    p.add_argument("--churn", action="store_true",
                   help="draw elastic-membership plans (joins, leaves, "
                        "elections + crashes) and judge the epoch "
                        "invariants on top of the base four")
    p.add_argument("--no-shrink", dest="no_shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--replay", default=None, metavar="PLAN",
                   help="run one canonical-JSON fault plan (inline or a "
                        "file path) instead of a campaign — re-runs a "
                        "shrunk reproducer")
    p.add_argument("--service", action="store_true",
                   help="instead: chaos-test the service layer — SIGKILL "
                        "the server mid-run, hang/poison slice workers, "
                        "inject blob-store faults; assert no session is "
                        "lost or duplicated and results stay bit-identical "
                        "(--smoke for the CI-sized run)")
    p.add_argument("--json", action="store_true",
                   help="repro.report/1 envelope on stdout; progress lines "
                        "move to stderr")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("run", help="one workload under one strategy",
                       parents=[scale, _nodes_parent(32), _seed_parent(1234)])
    p.add_argument("workload", nargs="?", default=None,
                   help="workload key, e.g. queens-13 (see `workloads`); "
                        "omit with --resume")
    p.add_argument("strategy", nargs="?", default="RIPS",
                   help=f"strategy ({', '.join(STRATEGY_ORDER)}; "
                        "case-insensitive; default RIPS)")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int,
                   default=None, metavar="N",
                   help="checkpoint the simulation every N events (crash-"
                        "durable; continue an interrupted run with --resume)")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="checkpoint file path (default <workload>.ckpt)")
    p.add_argument("--resume", default=None, metavar="FILE",
                   help="restore a checkpoint file and continue the run "
                        "(bit-identical to never having stopped)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("trace",
                       help="traced run -> Chrome/Perfetto JSON or JSONL",
                       parents=[scale, _nodes_parent(32), _seed_parent(1234)])
    p.add_argument("workload", help="workload key (lenient, e.g. nqueens)")
    p.add_argument("--strategy", default="RIPS",
                   help="strategy (default RIPS; case-insensitive)")
    p.add_argument("--out", default="trace.json",
                   help="output path (default trace.json)")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                   help="chrome = Perfetto-loadable trace_event JSON; "
                        "jsonl = one raw record per line, sim seconds")
    p.add_argument("--report", action="store_true",
                   help="also print the per-node phase-breakdown report")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("workloads", help="list workload keys", parents=[scale])
    p.set_defaults(fn=_cmd_workloads)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
