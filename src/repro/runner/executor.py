"""Grid executor: independent cells, local cores, deterministic output.

The experiment grid is embarrassingly parallel — each cell is one
deterministic simulation, seeded independently — so the executor's whole
job is mechanics:

* ``jobs=1`` (the default, and the pytest default) runs cells in-process,
  in request order, with no pool at all;
* ``jobs>1`` fans cells out over a ``ProcessPoolExecutor``.  Workers
  share the *trace* disk cache (:mod:`repro.apps.cache`), so each trace
  is built at most once per machine, not once per worker;
* results always come back **in request order**, whatever the completion
  order, so a parallel table is byte-identical to a serial one;
* per-cell latency is split honestly into ``wait_s`` (submit → worker
  pickup, i.e. queue time) and ``exec_s`` (simulation wall time inside
  the worker) — ``RunReport.timings`` carries both per cell, and an
  optional :class:`~repro.obs.metrics.MetricsRegistry` receives the
  executor's counters and latency histograms;
* an optional :class:`~repro.runner.result_cache.ResultCache` short-cuts
  cells that were simulated by any previous invocation;
* each cell gets a wall-clock ``timeout``, and cells lost to a worker
  crash (``BrokenProcessPool``) or timeout are retried once in a fresh
  pool before the run fails.

``REPRO_JOBS`` sets the default parallelism (``0`` or ``auto`` = one
worker per CPU).
"""

from __future__ import annotations

import os
import random
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.balancers import RunMetrics

from .result_cache import ResultCache
from .spec import (
    CellPreempted,
    RunRequest,
    execute_request,
    execute_request_resumable,
)

__all__ = [
    "RetryPolicy",
    "RunReport",
    "resolve_jobs",
    "run_requests",
    "run_requests_report",
]

_ENV_JOBS = "REPRO_JOBS"

#: Default per-cell wall-clock limit (seconds) in parallel mode.  Paper-scale
#: cells run minutes; this is a hang backstop, not a budget.
DEFAULT_CELL_TIMEOUT = 3600.0


def _timed_worker(req: RunRequest, submitted_at: float, preempt: bool,
                  budget: Optional[float]):
    """Pool target: measure queue wait and execution time *in the worker*.

    ``wait_s`` is worker-pickup minus submit on the shared wall clock
    (``time.time`` — ``perf_counter`` is not comparable across
    processes); ``exec_s`` is the simulation itself on the worker's
    monotonic clock.  Measuring from submit alone — the old behavior —
    conflated pool queueing with execution and inflated every latency
    percentile under load.  With ``preempt`` the cell runs resumably
    under the cooperative wall-clock ``budget``.
    """
    wait_s = max(0.0, time.time() - submitted_at)
    t0 = time.perf_counter()
    if preempt:
        metrics = execute_request_resumable(req, budget)
    else:
        metrics = execute_request(req)
    return metrics, wait_s, time.perf_counter() - t0


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-recovery policy: how often to retry, and how long to wait.

    Shared by the grid executor (cells lost to worker crashes/timeouts)
    and the service's slice supervisor (hung or failing session slices).
    Delays follow capped exponential backoff with optional jitter::

        delay(k) = min(cap, base * multiplier**k) * (1 + jitter * U[0,1))

    With ``seed`` set the jitter stream is deterministic — two runs with
    the same policy retry on exactly the same schedule, which is what
    makes supervised-recovery tests and chaos replays reproducible.  The
    default (one retry, zero backoff) is the executor's historical
    retry-once-immediately behavior.
    """

    retries: int = 1
    backoff_base: float = 0.0
    backoff_cap: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: Optional[int] = None

    def rng(self, salt: str = "") -> random.Random:
        """The jitter stream (independent per ``salt`` when seeded)."""
        if self.seed is None:
            return random.Random()
        return random.Random(f"{self.seed}:{salt}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_cap,
                   self.backoff_base * self.multiplier ** attempt)
        if base <= 0:
            return 0.0
        if self.jitter:
            base *= 1.0 + self.jitter * (rng or self.rng()).random()
        return min(self.backoff_cap, base)

    def schedule(self, salt: str = "") -> list[float]:
        """The full delay schedule (one entry per allowed retry)."""
        rng = self.rng(salt)
        return [self.delay(k, rng) for k in range(self.retries)]


@dataclass
class RunReport:
    """Outcome of one executor invocation (results in request order)."""

    results: list[RunMetrics] = field(default_factory=list)
    jobs: int = 1
    cache_hits: int = 0
    #: cells actually simulated by this invocation
    executed: int = 0
    #: cells that needed the crash/timeout retry pass
    retried: int = 0
    #: cells that failed both passes (the invocation raises, but the
    #: count survives on ``RuntimeError.report`` for callers that catch)
    failed: int = 0
    #: cells that hit their budget, checkpointed, and were resumed
    preempted: int = 0
    #: per-cell latency split, keyed by request index: ``{"wait_s", "exec_s"}``
    #: (queue wait measured submit → worker pickup; execution measured
    #: inside the worker).  Cache hits have no entry — nothing ran.
    timings: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line accounting, e.g. for CLI status output."""
        parts = [
            f"{len(self.results)} cell(s)",
            f"jobs={self.jobs}",
            f"{self.cache_hits} cached",
            f"{self.executed} executed",
        ]
        if self.preempted:
            parts.append(f"{self.preempted} preempted")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.failed:
            parts.append(f"{self.failed} failed")
        return ", ".join(parts)


def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
    """Resolve the parallelism knob: argument > ``$REPRO_JOBS`` > 1.

    ``0`` or ``"auto"`` means one worker per CPU.
    """
    if jobs is None:
        jobs = os.environ.get(_ENV_JOBS, "1")
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ValueError(f"invalid jobs value {jobs!r}") from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def run_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[Union[int, str]] = None,
    cache: Union[ResultCache, bool, None] = None,
    timeout: Optional[float] = DEFAULT_CELL_TIMEOUT,
    preempt: bool = False,
    retry: Optional[RetryPolicy] = None,
    metrics=None,
) -> list[RunMetrics]:
    """Execute ``requests`` and return metrics in request order."""
    return run_requests_report(
        requests, jobs=jobs, cache=cache, timeout=timeout,
        preempt=preempt, retry=retry, metrics=metrics,
    ).results


def run_requests_report(
    requests: Sequence[RunRequest],
    jobs: Optional[Union[int, str]] = None,
    cache: Union[ResultCache, bool, None] = None,
    timeout: Optional[float] = DEFAULT_CELL_TIMEOUT,
    preempt: bool = False,
    retry: Optional[RetryPolicy] = None,
    metrics=None,
) -> RunReport:
    """Like :func:`run_requests`, but also report cache/retry accounting.

    ``cache``: ``None``/``False`` disables result caching, ``True`` uses
    the default on-disk store, or pass a :class:`ResultCache` instance
    (e.g. rooted in a temp directory for tests).

    ``preempt``: run cells through
    :func:`~repro.runner.spec.execute_request_resumable` — a cell that
    hits the ``timeout`` budget checkpoints its simulator state and is
    *resumed* (not restarted) by the retry pass.  Only meaningful with a
    pool (serial cells cannot overrun an in-process budget usefully).

    ``retry``: a :class:`RetryPolicy` controlling how many fresh-pool
    passes a crashed/timed-out cell gets and the (capped, optionally
    jittered, deterministic-when-seeded) backoff between passes.  The
    default is the historical one immediate retry.

    ``metrics``: an optional :class:`~repro.obs.metrics.MetricsRegistry`
    that receives the executor's counters (``executor.cache_hits``,
    ``executor.executed``, ``executor.retried``, ``executor.preempted``,
    ``executor.failed``) and per-cell latency histograms
    (``executor.cell_wait_s``, ``executor.cell_exec_s``).  ``None`` (the
    default) costs nothing.
    """
    requests = list(requests)
    njobs = resolve_jobs(jobs)
    store: Optional[ResultCache]
    if cache is True:
        store = ResultCache()
    elif cache is False or cache is None:
        store = None
    else:
        store = cache

    report = RunReport(results=[None] * len(requests), jobs=njobs)  # type: ignore[list-item]

    pending: list[tuple[int, RunRequest]] = []
    for i, req in enumerate(requests):
        # Traced requests bypass the result cache entirely: their value is
        # the span stream, and stale traces masquerading as fresh ones are
        # worse than recomputation.
        hit = store.get(req) if store is not None and not req.trace else None
        if hit is not None:
            report.results[i] = hit
            report.cache_hits += 1
        else:
            pending.append((i, req))

    policy = retry if retry is not None else RetryPolicy()

    return _execute_pending(pending, njobs, timeout, store, report,
                            preempt, policy, registry=metrics)


def _publish_metrics(report: RunReport, registry) -> None:
    """Fold a finished report into a :class:`MetricsRegistry`."""
    registry.counter("executor.cache_hits").inc(report.cache_hits)
    registry.counter("executor.executed").inc(report.executed)
    registry.counter("executor.retried").inc(report.retried)
    registry.counter("executor.preempted").inc(report.preempted)
    registry.counter("executor.failed").inc(report.failed)
    wait_h = registry.histogram("executor.cell_wait_s")
    exec_h = registry.histogram("executor.cell_exec_s")
    for timing in report.timings.values():
        wait_h.observe(timing["wait_s"])
        exec_h.observe(timing["exec_s"])


def _execute_pending(
    pending: list[tuple[int, RunRequest]],
    njobs: int,
    timeout: Optional[float],
    store: Optional[ResultCache],
    report: RunReport,
    preempt: bool,
    policy: Optional[RetryPolicy] = None,
    registry=None,
) -> RunReport:
    policy = policy if policy is not None else RetryPolicy()
    if njobs <= 1 or len(pending) <= 1:
        for i, req in pending:
            t0 = time.perf_counter()
            metrics = execute_request(req)
            report.results[i] = metrics
            report.executed += 1
            # serial cells never queue: wait is identically zero
            report.timings[i] = {"wait_s": 0.0,
                                 "exec_s": time.perf_counter() - t0}
            if store is not None and not req.trace:
                store.put(req, metrics)
        if registry is not None:
            _publish_metrics(report, registry)
        return report

    failed = _run_pool(pending, njobs, timeout, store, report, preempt)
    first_elapsed = {i: elapsed for i, _req, elapsed, _pre in failed}
    rng = policy.rng("executor")
    passes = 1
    # Retry passes: a fresh pool per pass for cells lost to a crash,
    # timeout, or preemption, with the policy's (capped, jittered)
    # backoff between passes.  Preempted cells resume from checkpoint.
    for attempt in range(policy.retries):
        if not failed:
            break
        delay = policy.delay(attempt, rng)
        if delay > 0:
            time.sleep(delay)
        report.retried += len(failed)
        report.preempted += sum(1 for _i, _req, _e, pre in failed if pre)
        retry = [(i, req) for i, req, _elapsed, _pre in failed]
        failed = _run_pool(
            retry, min(njobs, len(retry)), timeout, store, report, preempt)
        passes += 1
    if registry is not None:
        report.failed = len(failed)
        _publish_metrics(report, registry)
    if failed:
        report.failed = len(failed)
        limit = f"{timeout:.0f}s" if timeout is not None else "none"
        blame = {1: "failed", 2: "failed twice"}.get(
            passes, f"failed {passes} times")
        details = []
        for i, req, elapsed, _pre in failed:
            # The request hash is the cell's name in .result_cache/
            # (and in checkpoints/); include it so a failed cell is
            # greppable on disk.
            cell_hash = store.key(req) if store is not None \
                else req.content_hash()[:24]
            detail = (
                f"{req.label()} [{cell_hash}] "
                f"(elapsed {first_elapsed.get(i, 0.0):.1f}s "
                f"then {elapsed:.1f}s; per-cell timeout {limit})"
            )
            details.append(detail)
            warnings.warn(
                f"grid cell {blame} (worker crash or timeout): {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
        err = RuntimeError(
            f"{len(failed)} grid cell(s) {blame} "
            f"(worker crash or timeout): " + ", ".join(details)
        )
        err.report = report  # retry/failure accounting for catchers
        raise err
    return report


def _run_pool(
    pending: Sequence[tuple[int, RunRequest]],
    njobs: int,
    timeout: Optional[float],
    store: Optional[ResultCache],
    report: RunReport,
    preempt: bool = False,
) -> list[tuple[int, RunRequest, float, bool]]:
    """One process-pool pass; returns the cells lost to crash/timeout/
    preemption as ``(index, request, elapsed_wall_seconds, preempted)``.

    Application-level exceptions from :func:`execute_request` (bad
    workload key, strategy deadlock, ...) propagate immediately — only
    infrastructure failures and cooperative preemptions are retryable.

    With ``preempt``, cells run under a cooperative wall-clock budget of
    ``timeout`` inside the worker (checkpoint + :class:`CellPreempted`
    on overrun); the future-level timeout is kept as a 2x backstop for
    workers too wedged to reach a slice boundary.
    """
    failed: list[tuple[int, RunRequest, float, bool]] = []
    hard_timeout = timeout
    if preempt and timeout is not None:
        hard_timeout = timeout * 2 + 30.0
    pool = ProcessPoolExecutor(max_workers=njobs)
    t0 = time.monotonic()
    try:
        futures = [
            (i, req,
             pool.submit(_timed_worker, req, time.time(), preempt, timeout))
            for i, req in pending
        ]
        broken = False
        for i, req, fut in futures:
            if broken:
                fut.cancel()
                failed.append((i, req, time.monotonic() - t0, False))
                continue
            try:
                metrics, wait_s, exec_s = fut.result(timeout=hard_timeout)
            except CellPreempted:
                failed.append((i, req, time.monotonic() - t0, True))
                continue
            except FutureTimeoutError:
                fut.cancel()
                failed.append((i, req, time.monotonic() - t0, False))
                continue
            except BrokenProcessPool:
                # every not-yet-finished future in this pool is lost
                failed.append((i, req, time.monotonic() - t0, False))
                broken = True
                continue
            report.results[i] = metrics
            report.executed += 1
            report.timings[i] = {"wait_s": wait_s, "exec_s": exec_s}
            if store is not None and not req.trace:
                store.put(req, metrics)
    finally:
        # wait=False: a timed-out (hung) worker must not block shutdown —
        # the retry pass runs in a fresh pool while the orphan winds down.
        pool.shutdown(wait=False, cancel_futures=True)
    return failed
