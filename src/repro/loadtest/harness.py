"""The load generator: schedules, drivers, and per-cell measurements.

Two drivers share one schedule builder:

* **runner** — cells run in a dedicated ``ProcessPoolExecutor`` with
  ``concurrency`` workers and a loadtest-private result cache, so hit
  rates reflect this run's mix rather than whatever ``.result_cache/``
  accumulated;
* **service** — cells are submitted to a live ``repro serve`` instance
  (booted in-process on a free port, or an external ``--url``) by
  ``concurrency`` client threads that retry 429/503 with the server's
  ``Retry-After``, counting every rejection.

The schedule is deterministic: cell *i* takes the ``i % len(mix)``-th
entry of the workload × strategy mix (round-robin, so repeats —
the result-cache exercise — never race their originals back-to-back),
and open-loop arrival offsets come from ``random.Random(seed)``.  Same
seed + config ⇒ identical request sequence, which
``tests/loadtest`` pins down.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

from repro.runner.spec import RunRequest

__all__ = ["LoadtestConfig", "ScheduledCell", "build_schedule", "run_loadtest"]

#: hard ceiling on 429/503 retries per cell before the cell counts failed
_MAX_REJECT_RETRIES = 200


@dataclass(frozen=True)
class LoadtestConfig:
    """One loadtest campaign, fully determined by its fields + seed."""

    #: total cells driven through the system
    sessions: int = 16
    #: workers (runner) / client threads (service) applying the load
    concurrency: int = 4
    #: ``closed`` = next request on completion; ``open`` = seeded Poisson
    #: arrivals at ``rate``/s regardless of completions
    arrival: str = "closed"
    #: open-loop arrival rate, requests/second
    rate: float = 8.0
    workloads: tuple = ("queens-10",)
    strategies: tuple = ("RIPS", "RID")
    num_nodes: int = 16
    scale: str = "small"
    #: workload seed each cell runs with (one value keeps every cell of a
    #: workload on the same cached trace across the strategy mix)
    workload_seed: int = 7
    #: harness seed: arrival jitter, nothing else — the mix is round-robin
    seed: int = 0
    #: per-cell / per-session wall-clock budget, seconds
    timeout: float = 300.0
    #: run one traced sentinel cell for subsystem attribution
    attribution: bool = True
    #: include the node/event memory audit of a prepared machine
    mem_audit: bool = False
    #: attach a seeded elastic-membership plan (standby ranks, runtime
    #: joins/leaves, elections, the odd crash) to every cell — the
    #: capacity-under-churn profile.  Plans are drawn per cell from the
    #: campaign seed, so the schedule stays deterministic.
    churn: bool = False

    def __post_init__(self) -> None:
        if self.arrival not in ("closed", "open"):
            raise ValueError(
                f"arrival must be 'closed' or 'open', got {self.arrival!r}")
        if self.sessions < 1 or self.concurrency < 1:
            raise ValueError("sessions and concurrency must be >= 1")

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("workloads", "strategies"):
            doc[key] = list(doc[key])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LoadtestConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown loadtest config field(s): {', '.join(unknown)}")
        doc = dict(doc)
        for key in ("workloads", "strategies"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)


@dataclass(frozen=True)
class ScheduledCell:
    """One arrival: which request, and when it is offered (open loop)."""

    index: int
    offset_s: float
    request: RunRequest


def build_schedule(config: LoadtestConfig) -> list[ScheduledCell]:
    """The deterministic request sequence of a campaign.

    Round-robin over the ``workloads × strategies`` mix (outer
    to inner), so any ``sessions > len(mix)`` repeats earlier content
    hashes — those repeats are the result-cache/coalescing exercise.
    Open-loop offsets are cumulative ``Expovariate(rate)`` draws from
    ``random.Random(seed)``; closed-loop offsets are all zero.

    With ``churn``, each cell additionally carries an elastic-membership
    :class:`~repro.faults.FaultPlan` drawn from
    :func:`repro.faults.chaos.random_churn_plan` with the same per-cell
    RNG stream the chaos harness uses (``(seed << 20) ^ i``), so a
    failing cell can be replayed under ``repro chaos --churn``.  Distinct
    plans give every cell a distinct content hash, which deliberately
    defeats result-cache coalescing: the churn profile measures raw
    capacity with membership protocol traffic on every run.
    """
    mix = [(w, s) for w in config.workloads for s in config.strategies]
    if not mix:
        raise ValueError("empty workload/strategy mix")
    if config.churn:
        from repro.faults.chaos import random_churn_plan
    rng = random.Random(config.seed)
    schedule = []
    offset = 0.0
    for i in range(config.sessions):
        workload, strategy = mix[i % len(mix)]
        if config.arrival == "open":
            offset += rng.expovariate(config.rate)
        faults = None
        if config.churn:
            faults = random_churn_plan(
                random.Random((config.seed << 20) ^ i),
                num_nodes=config.num_nodes)
        req = RunRequest(
            workload=workload,
            strategy=strategy,
            num_nodes=config.num_nodes,
            seed=config.workload_seed,
            scale=config.scale,
            faults=faults,
        )
        schedule.append(ScheduledCell(index=i, offset_s=offset, request=req))
    return schedule


# ----------------------------------------------------------------------
# runner target
# ----------------------------------------------------------------------
_worker_caches: dict = {}


def _worker_cache(root: str):
    """Per-process ResultCache memo (workers reuse one instance)."""
    from repro.runner.result_cache import ResultCache

    cache = _worker_caches.get(root)
    if cache is None:
        from repro.store import LocalDirStore

        cache = _worker_caches[root] = ResultCache(
            store=LocalDirStore(root))
    return cache


def _cell_worker(req: RunRequest, submitted_at: float, cache_root: str) -> dict:
    """Execute one cell in a pool worker; measure it honestly.

    ``wait_s`` is pickup minus offered-time on the shared wall clock
    (queue wait under contention — the thing a closed loop saturates);
    ``exec_s`` is the in-worker execution on the monotonic clock.
    """
    from repro.session import Session

    wait_s = max(0.0, time.time() - submitted_at)
    t0 = time.perf_counter()
    cache = _worker_cache(cache_root)
    hit = cache.get(req)
    if hit is not None:
        return {
            "ok": True, "wait_s": wait_s,
            "exec_s": time.perf_counter() - t0,
            "cache_hit": True, "events": 0,
            "T": hit.T,
        }
    sess = Session.from_request(req)
    metrics = sess.run()
    events, _now = sess.progress()
    cache.put(req, metrics)
    return {
        "ok": True, "wait_s": wait_s, "exec_s": time.perf_counter() - t0,
        "cache_hit": False, "events": events,
        "T": metrics.T,
    }


def _drive_runner(config: LoadtestConfig,
                  schedule: list[ScheduledCell]) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-loadtest-",
                                     ignore_cleanup_errors=True) as tmp:
        cache_root = os.path.join(tmp, "results")
        pool = ProcessPoolExecutor(max_workers=config.concurrency)
        rows: list = [None] * len(schedule)
        started = time.perf_counter()
        wall0 = time.time()
        try:
            futures = []
            for cell in schedule:
                if config.arrival == "open":
                    due = wall0 + cell.offset_s
                    delay = due - time.time()
                    if delay > 0:
                        time.sleep(delay)
                    offered = due
                else:
                    offered = time.time()
                futures.append((cell.index, pool.submit(
                    _cell_worker, cell.request, offered, cache_root)))
            for i, fut in futures:
                rows[i] = fut.result(timeout=config.timeout)
            elapsed = time.perf_counter() - started
            pool.shutdown(wait=True)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return _fold_rows(config, rows, elapsed, target="runner")


# ----------------------------------------------------------------------
# service target
# ----------------------------------------------------------------------
def _service_cell(client, req: RunRequest, offered: float,
                  timeout: float) -> dict:
    """Submit one cell over HTTP, riding out 429/503 with Retry-After."""
    from repro.service.client import ServiceClientError, SessionFailed

    rejects = {"r429": 0, "r503": 0}
    t0 = time.perf_counter()
    for _attempt in range(_MAX_REJECT_RETRIES):
        try:
            doc = client.run(req, timeout=timeout)
        except ServiceClientError as exc:
            if exc.status == 429:
                rejects["r429"] += 1
            elif exc.status == 503:
                rejects["r503"] += 1
            else:
                return {"ok": False, "error": str(exc),
                        "wait_s": max(0.0, time.time() - offered),
                        "exec_s": time.perf_counter() - t0,
                        "cache_hit": False, "events": 0, **rejects}
            time.sleep(min(1.0, exc.retry_after or 0.05))
            continue
        except (SessionFailed, TimeoutError) as exc:
            return {"ok": False, "error": str(exc),
                    "wait_s": max(0.0, time.time() - offered),
                    "exec_s": time.perf_counter() - t0,
                    "cache_hit": False, "events": 0, **rejects}
        return {
            "ok": True,
            "wait_s": max(0.0, time.time() - offered),
            "exec_s": time.perf_counter() - t0,
            "cache_hit": bool(doc.get("from_cache")),
            "events": int(doc.get("events_processed") or 0),
            **rejects,
        }
    return {"ok": False, "error": "rejected too many times",
            "wait_s": max(0.0, time.time() - offered),
            "exec_s": time.perf_counter() - t0,
            "cache_hit": False, "events": 0, **rejects}


def _drive_service(config: LoadtestConfig, schedule: list[ScheduledCell],
                   url: Optional[str]) -> dict:
    from repro.service.client import ServiceClient

    bg = None
    if url is None:
        from repro.service import ServiceConfig, serve_background

        bg = serve_background(ServiceConfig(
            port=0, max_inflight=max(2, config.concurrency),
            journal=False, store_root=tempfile.mkdtemp(
                prefix="repro-loadtest-svc-")))
        url = bg.url
    try:
        client = ServiceClient(url)
        pool = ThreadPoolExecutor(max_workers=config.concurrency)
        rows: list = [None] * len(schedule)
        started = time.perf_counter()
        wall0 = time.time()
        try:
            futures = []
            for cell in schedule:
                if config.arrival == "open":
                    due = wall0 + cell.offset_s
                    delay = due - time.time()
                    if delay > 0:
                        time.sleep(delay)
                    offered = due
                else:
                    offered = time.time()
                futures.append((cell.index, pool.submit(
                    _service_cell, client, cell.request, offered,
                    config.timeout)))
            for i, fut in futures:
                rows[i] = fut.result(timeout=config.timeout)
        finally:
            pool.shutdown(wait=True)
        elapsed = time.perf_counter() - started
        outcome = _fold_rows(config, rows, elapsed, target="service")
        # server-side registry snapshot: admission/shed/coalescing truth
        outcome["service_metrics"] = client.metrics()
    finally:
        if bg is not None:
            bg.stop()
    return outcome


# ----------------------------------------------------------------------
# folding + extras
# ----------------------------------------------------------------------
def _fold_rows(config: LoadtestConfig, rows: list, elapsed: float,
               target: str) -> dict:
    from repro.obs.metrics import summarize

    ok_rows = [r for r in rows if r and r.get("ok")]
    executed = [r for r in ok_rows if not r["cache_hit"]]
    cache_hits = sum(1 for r in ok_rows if r["cache_hit"])
    events = sum(r["events"] for r in ok_rows)
    outcome = {
        "target": target,
        "elapsed_s": elapsed,
        "sessions": len(rows),
        "completed": len(ok_rows),
        "failed": len(rows) - len(ok_rows),
        "latency_s": summarize([r["exec_s"] for r in ok_rows]),
        "wait_s": summarize([r["wait_s"] for r in ok_rows]),
        "events_total": events,
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
        "cache": {
            "result_hits": cache_hits,
            "result_hit_rate":
                cache_hits / len(ok_rows) if ok_rows else 0.0,
        },
        "errors": {
            "r429": sum(r.get("r429", 0) for r in rows if r),
            "r503": sum(r.get("r503", 0) for r in rows if r),
        },
    }
    failures = [r.get("error") for r in rows if r and not r.get("ok")]
    if failures:
        outcome["failures"] = failures[:8]
    _ = executed  # executed cells are implied: completed - result_hits
    return outcome


def _attribution_extra(config: LoadtestConfig) -> dict:
    """One traced sentinel cell → subsystem self-time split + exact
    rollup reconciliation (delta must be 0.0 by construction)."""
    from dataclasses import replace

    from repro.obs import Tracer
    from repro.obs.attribution import reconcile, subsystem_attribution
    from repro.runner.spec import execute_request

    req = replace(build_schedule(config)[0].request, trace=True)
    metrics = execute_request(req)
    tracer = Tracer.from_records(metrics.extra.get("trace_records") or [])
    return {
        "subsystems": subsystem_attribution(tracer),
        "reconcile": reconcile(tracer),
        "spans": sum(1 for r in tracer.records if r[0] == "X"),
    }


def _mem_audit_extra(config: LoadtestConfig) -> dict:
    from repro.obs.memory import memory_audit
    from repro.session import Session

    sess = Session.from_request(build_schedule(config)[0].request).prepare()
    return memory_audit(sess._machine)


def run_loadtest(config: LoadtestConfig, target: str = "runner",
                 url: Optional[str] = None) -> dict:
    """Run one campaign against ``runner``, ``service``, or ``both``.

    Returns ``{target_name: outcome, ...}`` plus (config-dependent)
    ``attribution`` and ``mem_audit`` entries — the ``data["targets"]``
    payload of the loadtest report.
    """
    if target not in ("runner", "service", "both"):
        raise ValueError(f"target must be runner|service|both, got {target!r}")
    schedule = build_schedule(config)
    out: dict = {"targets": {}}
    if target in ("runner", "both"):
        out["targets"]["runner"] = _drive_runner(config, schedule)
    if target in ("service", "both"):
        out["targets"]["service"] = _drive_service(config, schedule, url)
    if config.attribution:
        out["attribution"] = _attribution_extra(config)
    if config.mem_audit:
        out["mem_audit"] = _mem_audit_extra(config)
    return out
