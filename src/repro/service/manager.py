"""Session lifecycle, admission control, quotas, durability, health.

The manager is the service's scheduler-of-schedulers: it owns every
server-side :class:`repro.session.Session`, runs them in *slices* on a
thread pool so the asyncio loop never blocks, and publishes a progress
frame to WebSocket subscribers at every slice boundary — event-driven
streaming, no client polling.

Load discipline (the "millions of users" contract):

* **Admission control** — at most ``max_inflight`` sessions simulate
  concurrently; up to ``queue_depth`` more wait their turn; beyond that
  a submit is *rejected* (HTTP 429) instead of stalling the event loop.
* **Per-tenant quotas** — a token bucket per tenant (capacity
  ``quota_tokens``, refill ``quota_refill``/s); one token per submitted
  cell.  Exhausted tenants get 429 + Retry-After while other tenants
  keep scheduling.  Buckets live in memory only and are rebuilt *full*
  after a restart — a crash must never strand a tenant mid-refill, and
  recovered sessions were already paid for, so re-admission bypasses
  the buckets entirely (the pinned restart semantic; see the tests).
* **Coalescing** — a submit whose request content-hash matches an
  in-flight session attaches to it instead of simulating twice, and
  finished untraced cells are served straight from the shared result
  cache; batch submits route through the runner's process-pool executor
  (:func:`repro.runner.run_requests_report`).

Crash discipline (the robustness contract):

* **Durable journal** — every admission, state transition, periodic
  auto-checkpoint, and terminal result is mirrored into the blob
  store's ``sessions`` namespace by :class:`.journal.SessionJournal`.
  On startup :meth:`SessionManager.recover` replays the journal:
  terminal sessions come back as queryable records, and interrupted
  ones are re-admitted (in their original admission order) from their
  last auto-checkpoint, completing bit-identically to a run that was
  never interrupted.
* **Supervised slices** — each slice runs under a ``slice_deadline``;
  a hung or crashing slice is abandoned, session state is rebuilt from
  the last checkpoint, and the slice retries on a capped-exponential
  backoff schedule (deterministic when ``retry_seed`` is set — the same
  :class:`repro.runner.RetryPolicy` the grid executor uses).  Repeated
  failure is a terminal ``failed`` state with a *structured* error
  frame (``{"code", "message", "attempts", ...}``), never a silent
  stall.  Abandoned worker threads drain on their own because slices
  are bounded (``max_events``); true runaway cells belong on the grid
  path, whose process pool can actually kill workers.
* **Health-state machine** — ``ok → degraded → shedding``, driven by
  queue depth, consecutive journal-write failures, and the recent
  slice-failure rate.  One level rule acts on it: while a fault signal
  holds, submits get 503 + deterministic ``Retry-After`` and each
  session parks durably at its next slice boundary, journaled with
  ``"cause": "health"`` (one the store cannot checkpoint runs on).
  Evaluations re-test both signals, and re-run every ``Retry-After``
  seconds while sessions stay parked, so fault mode ends on its own and
  they resume (after a restart too: recovery re-admits them).
  ``GET /v1/healthz`` surfaces the state and reasons.

Lifecycle: one ``(state, event) → state`` table, :data:`_LIFECYCLE`,
applied only by :meth:`SessionRecord.step` (which also publishes the
state frame and journals the transition).  Verbs look their event up
first — a missing row is a 409.  Pause/resume/fork go through
:mod:`repro.snapshot`: parking checkpoints the session into the
``sessions`` namespace of the shared :class:`repro.store.BlobStore`;
resume and fork rebuild from that blob, bit-identical to a run that
never stopped.  Auto-checkpoints reuse the same machinery on the same
slice boundaries (keys ``<id>-auto-<n>``, dropped once the session
completes; pause checkpoints survive for forking).
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry, make_report
from repro.runner import ResultCache, RetryPolicy, RunRequest, run_requests_report
from repro.snapshot import Snapshot, SnapshotError
from repro.store import BlobStore, LocalDirStore

from .http import is_terminal_frame
from .journal import TERMINAL_STATES, SessionJournal

__all__ = [
    "AdmissionFull",
    "HealthMonitor",
    "QuotaExceeded",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "SessionManager",
    "SessionRecord",
    "SliceFailure",
    "metrics_to_wire",
]

_SESSIONS_NS = "sessions"

# fixed tuning (no caller needs another value)
_TRACE_MAX_RECORDS = 200_000  # tracer backstop for traced sessions
_KEEP_DONE = 512  # finished session records kept for status queries
_FRAME_LOG = 512  # frames kept per session for ``?since=`` replay
_SLICE_BACKOFF_CAP = 2.0  # cap on the slice-retry backoff, seconds
_DEGRADED_QUEUE_FRAC = 0.8  # queued/queue_depth that trips "degraded"
_HEALTH_WINDOW = 16  # slice outcomes behind the failure-rate signal
_RETRY_AFTER = {"ok": 2.0, "degraded": 2.0, "shedding": 10.0}  # seconds


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: sessions simulating concurrently (thread-pool width)
    max_inflight: int = 8
    #: admitted-but-waiting sessions beyond which submits get 429
    queue_depth: int = 32
    #: per-tenant token-bucket capacity (1 token = 1 submitted cell)
    quota_tokens: float = 120.0
    #: per-tenant refill rate, tokens/second
    quota_refill: float = 2.0
    #: simulator events per progress slice (frame cadence)
    slice_events: int = 50_000
    #: blob-store root override (None = the shared .result_cache/)
    store_root: Optional[str] = None
    #: serve results from / fill the shared result cache
    use_result_cache: bool = True
    # ----- durability ------------------------------------------------
    #: mirror session lifecycles into the blob store (the WAL)
    journal: bool = True
    #: auto-checkpoint cadence in slices (0 disables; pause/resume
    #: checkpoints are unaffected)
    checkpoint_every_slices: int = 16
    # ----- supervision -----------------------------------------------
    #: wall-clock budget per slice, seconds (0 disables the deadline)
    slice_deadline: float = 300.0
    #: extra attempts after a slice times out or raises
    slice_retries: int = 2
    #: backoff before retry k: min(cap, base * 2**k), plus jitter
    slice_backoff: float = 0.05
    #: seed for deterministic retry jitter (None = nondeterministic)
    retry_seed: Optional[int] = None
    # ----- health ----------------------------------------------------
    #: consecutive journal-write failures that trip "degraded"
    journal_fail_threshold: int = 3


class ServiceError(Exception):
    """Base for manager-level rejections; carries an HTTP status."""

    status = 400

    def to_doc(self) -> dict:
        return {"error": str(self)}


class QuotaExceeded(ServiceError):
    status = 429

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is out of quota tokens; "
            f"retry in {retry_after:.1f}s"
        )
        self.retry_after = max(0.0, retry_after)


class AdmissionFull(ServiceError):
    status = 429

    def __init__(self, active: int, limit: int) -> None:
        super().__init__(
            f"admission is full ({active} session(s) active, limit {limit}); "
            f"shedding load"
        )
        self.retry_after = 1.0


class ServiceUnavailable(ServiceError):
    """The health-state machine left ``ok``: new work is shed (503)."""

    status = 503

    def __init__(self, state: str, reasons: list[str],
                 retry_after: float) -> None:
        why = "; ".join(reasons) or "health degraded"
        super().__init__(f"service is {state} ({why}); not accepting new work")
        self.state = state
        self.reasons = list(reasons)
        self.retry_after = retry_after


class SliceFailure(Exception):
    """A supervised slice exhausted its retry budget.

    ``error`` is the structured failure document that becomes the
    session's terminal error frame: ``{"code": "slice_timeout" |
    "slice_failed", "message": ..., "attempt": k, "attempts": n, ...}``.
    """

    def __init__(self, error: dict) -> None:
        super().__init__(error.get("message", "slice failed"))
        self.error = dict(error)


class _TokenBucket:
    """Classic leaky bucket on the monotonic clock."""

    def __init__(self, capacity: float, refill_per_s: float) -> None:
        self.capacity = float(capacity)
        self.refill = float(refill_per_s)
        self.tokens = float(capacity)
        self.updated = time.monotonic()

    def _refill(self, now: float) -> None:
        self.tokens = min(self.capacity,
                          self.tokens + (now - self.updated) * self.refill)
        self.updated = now

    def take(self, n: float = 1.0) -> bool:
        now = time.monotonic()
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (inf if never)."""
        if n <= self.tokens:
            return 0.0
        if self.refill <= 0:
            return float("inf")
        return (n - self.tokens) / self.refill


class HealthMonitor:
    """The ``ok → degraded → shedding`` state machine.

    Signals are fed by the manager (journal-write outcomes, slice
    outcomes); the *state* is recomputed on demand from the signals plus
    the live queue depth, so evaluation is pure and deterministic — two
    managers with the same signal history and queue agree exactly.

    One tripped signal → ``degraded``; two or more (or a journal-failure
    streak at twice the threshold — durability is the one thing the
    service cannot limp along without) → ``shedding``.
    """

    STATES = ("ok", "degraded", "shedding")

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state = "ok"
        self.journal_fail_streak = 0
        self.slice_window: deque = deque(maxlen=_HEALTH_WINDOW)

    # ----- signal feeds ----------------------------------------------
    def note_journal_failure(self) -> None:
        self.journal_fail_streak += 1

    def note_journal_ok(self) -> None:
        self.journal_fail_streak = 0

    def note_slice(self, ok: bool) -> None:
        self.slice_window.append(bool(ok))

    # ----- evaluation ------------------------------------------------
    def fault_reasons(self) -> list[str]:
        """Fault signals: something is *broken*, not merely busy — these
        stop new admissions (503) and park every session."""
        cfg = self.config
        out = []
        if self.journal_fail_streak >= cfg.journal_fail_threshold:
            out.append(f"{self.journal_fail_streak} consecutive "
                       f"journal write failures")
        window = list(self.slice_window)
        fails = window.count(False)
        if len(window) >= 4 and fails * 2 >= len(window):
            out.append(f"slice failure rate {fails}/{len(window)}")
        return out

    def evaluate(self, queued: int, queue_limit: int) -> tuple[str, list[str]]:
        """Recompute the state; returns ``(state, reasons)``.  Queue
        pressure shows here, but *admission control* sheds it (429 per
        excess submit) — refusing all work because the queue is busy
        would be circular."""
        faults = self.fault_reasons()
        load = []
        if queue_limit > 0 and queued >= _DEGRADED_QUEUE_FRAC * queue_limit:
            load.append(f"queue depth {queued}/{queue_limit}")
        if not load and not faults:
            self.state = "ok"
        elif (len(faults) >= 2 or (faults and load)
                or self.journal_fail_streak
                >= 2 * self.config.journal_fail_threshold):
            self.state = "shedding"
        else:
            self.state = "degraded"
        return self.state, load + faults

    def refusing(self) -> bool:
        """True when fault signals say to stop admitting new work."""
        return bool(self.fault_reasons())

    def retry_after(self) -> float:
        return _RETRY_AFTER[self.state]


#: The session lifecycle, ``(state, event) → next state``, applied only
#: by :meth:`SessionRecord.step`; a verb whose event has no row is a 409.
_LIFECYCLE = {
    ("queued", "start"): "running",    ("queued", "park"): "paused",
    ("running", "park"): "paused",     ("running", "finish"): "done",
    ("paused", "resume"): "queued",
    ("queued", "cancel"): "cancelled", ("running", "cancel"): "cancelled",
    ("paused", "cancel"): "cancelled",
    ("queued", "fail"): "failed",      ("running", "fail"): "failed",
}
#: States that still occupy (or will occupy) an execution slot.
_ACTIVE = ("queued", "running")


@dataclass
class SessionRecord:
    """One server-side session and everything a status query needs."""

    id: str
    tenant: str
    request: RunRequest
    state: str = "queued"
    created: float = field(default_factory=time.monotonic)
    #: monotone frame counter (also the WS frame "seq")
    seq: int = 0
    #: live progress snapshot, updated at each slice boundary
    events_processed: int = 0
    sim_now: float = 0.0
    events_per_sec: float = 0.0
    slices: int = 0
    #: result / failure (``error`` is a structured dict:
    #: ``{"code": ..., "message": ...}``)
    metrics: Optional[object] = None
    error: Optional[dict] = None
    from_cache: bool = False
    #: number of submits coalesced onto this record (first submit = 0)
    coalesced: int = 0
    #: blob key of the newest checkpoint ("" = none); pause checkpoints
    #: are ``<id>-<slices>``, auto-checkpoints ``<id>-auto-<slices>``
    checkpoint_key: str = ""
    parent: Optional[str] = None
    #: control flags, read at slice boundaries
    pause_requested: bool = False
    cancel_requested: bool = False
    #: the session state was at some point rebuilt from a snapshot —
    #: disqualifies the run from filling the start-to-finish result
    #: cache (still bit-identical, just conservatively not cached)
    restored: bool = False
    #: parked by the health rule (journaled as the pause's cause)
    health_paused: bool = False
    # internals (not serialized)
    session: Optional[object] = None
    task: Optional[asyncio.Task] = None
    subscribers: list = field(default_factory=list)
    journal: Optional[SessionJournal] = None
    #: recent frames, replayed for ``?since=<seq>`` reconnects
    frame_log: deque = field(default_factory=lambda: deque(maxlen=_FRAME_LOG))
    _changed: asyncio.Event = field(default_factory=asyncio.Event)
    _trace_cursor: int = 0

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """The JSON status document (``GET /v1/sessions/<id>``)."""
        doc = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "request": self.request.to_wire(),
            "label": self.request.label(),
            "seq": self.seq,
            "events_processed": self.events_processed,
            "sim_now": self.sim_now,
            "events_per_sec": round(self.events_per_sec, 1),
            "slices": self.slices,
            "coalesced": self.coalesced,
            "from_cache": self.from_cache,
            "parent": self.parent,
            "checkpoint": self.checkpoint_key or None,
        }
        if self.metrics is not None:
            doc["metrics"] = metrics_to_wire(self.metrics)
        if self.error is not None:
            doc["error"] = self.error
        return doc

    # ------------------------------------------------------------------
    def publish(self, frame: dict) -> None:
        """Fan one frame out to every subscriber queue (never blocks —
        a slow consumer drops frames rather than stalling the loop)."""
        self.seq += 1
        frame = {"seq": self.seq, "session": self.id, **frame}
        self.frame_log.append(frame)
        for queue in list(self.subscribers):
            try:
                queue.put_nowait(frame)
            except asyncio.QueueFull:
                pass  # slow consumer: shed frames, keep the loop live

    def step(self, event: str, **frame_args) -> None:
        """Apply one :data:`_LIFECYCLE` event (``KeyError`` if it has no
        row): set ``state``, publish its frame, journal it."""
        self.state = _LIFECYCLE[(self.state, event)]
        self.publish({"type": "state", "state": self.state, **frame_args})
        if self.journal is not None:
            self.journal.record(self.id, self.state_entry())
        self._changed.set()
        self._changed = asyncio.Event()

    def state_entry(self) -> dict:
        """The ``state`` journal entry for the current state."""
        entry = {"kind": "state", "state": self.state, "seq": self.seq}
        if self.checkpoint_key:
            entry["checkpoint"] = self.checkpoint_key
        if self.state == "done" and self.metrics is not None:
            entry["metrics"] = metrics_to_wire(self.metrics)
            entry["from_cache"] = self.from_cache
        if self.state == "failed" and self.error is not None:
            entry["error"] = self.error
        if self.state == "paused" and self.health_paused:
            entry["cause"] = "health"
        return entry

    async def wait_leaving(self, state: str, timeout: float = 30.0) -> None:
        """Block until the record's state is not ``state`` (bounded)."""
        deadline = time.monotonic() + timeout
        while self.state == state:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._changed.wait()), remaining)
            except asyncio.TimeoutError:
                break


def metrics_to_wire(metrics) -> dict:
    """A :class:`RunMetrics` as a JSON-ready dict (trace record streams
    are summarized, not shipped — they belong to the trace endpoints).
    An already-wire dict (journal-recovered results) passes through."""
    if isinstance(metrics, dict):
        return dict(metrics)
    doc = asdict(metrics)
    extra = dict(doc.get("extra") or {})
    records = extra.pop("trace_records", None)
    if records is not None:
        extra["trace_records_len"] = len(records)
    doc["extra"] = extra
    doc["speedup"] = metrics.speedup
    return doc


def _admission_n(session_id: str) -> int:
    """The admission index baked into ``s<NNNN>-<uuid>`` session ids."""
    try:
        return int(session_id.split("-", 1)[0].lstrip("s"))
    except ValueError:
        return 0


class SessionManager:
    """All live session state of one server process."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 store: Optional[BlobStore] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None \
            else LocalDirStore(self.config.store_root)
        self.result_cache = (
            ResultCache(store=self.store)
            if self.config.use_result_cache else None
        )
        self.records: dict[str, SessionRecord] = {}
        self._by_hash: dict[str, str] = {}  # content hash -> active record id
        self._buckets: dict[str, _TokenBucket] = {}
        self._sem = asyncio.Semaphore(self.config.max_inflight)
        self._grid_sem = asyncio.Semaphore(1)
        self._queued = 0
        self._running = 0
        self._next_seq = 1
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, self.config.max_inflight),
            thread_name_prefix="repro-serve",
        )
        self.health = HealthMonitor(self.config)
        self._recheck: Optional[asyncio.TimerHandle] = None  # next re-test
        self.journal: Optional[SessionJournal] = None
        if self.config.journal:
            self.journal = SessionJournal(
                self.store,
                on_write_error=lambda exc: self.health.note_journal_failure(),
                on_write_ok=self.health.note_journal_ok,
            )
        #: test/chaos hook, run in the worker thread at the top of every
        #: slice attempt as ``hook(record, attempt)`` — raise to poison
        #: the slice, sleep to simulate a hang
        self.slice_hook: Optional[Callable[[SessionRecord, int], None]] = None
        self._slice_policy = RetryPolicy(
            retries=max(0, self.config.slice_retries),
            backoff_base=self.config.slice_backoff,
            backoff_cap=_SLICE_BACKOFF_CAP,
            jitter=0.1,
            seed=self.config.retry_seed,
        )
        self.started = time.monotonic()
        #: the unified metrics registry (see repro.obs.metrics): every
        #: health/admission counter below lives here, and GET /v1/metrics
        #: serves its snapshot.
        self.metrics = MetricsRegistry()
        counter = self.metrics.counter
        self._c_submitted = counter("service.submitted")
        self._c_rejected_quota = counter("service.rejected_quota")
        self._c_rejected_admission = counter("service.rejected_admission")
        self._c_shed_health = counter("service.shed_health")
        self._c_coalesced = counter("service.coalesced_hits")
        self._c_cache_hits = counter("service.cache_hits")
        self._c_slice_failures = counter("service.slice_failures")
        self._c_slice_timeouts = counter("service.slice_timeouts")
        self._c_recovered = counter("service.recovered_sessions")
        # elastic-membership rollups: finished runs whose FaultPlan
        # changed the member set report their epoch log in
        # RunMetrics.extra["membership"]; /v1/metrics aggregates it here
        self._c_mem_epochs = counter("service.membership_epochs")
        self._c_mem_joins = counter("service.membership_joins")
        self._c_mem_leaves = counter("service.membership_leaves")
        self._c_mem_elections = counter("service.membership_elections")
        self._c_mem_lost_tasks = counter("service.membership_lost_tasks")
        self._h_wait = self.metrics.histogram("service.session_wait_s")
        self._h_exec = self.metrics.histogram("service.session_exec_s")

    # ------------------------------------------------------------------
    # admission helpers
    # ------------------------------------------------------------------
    def _bucket(self, tenant: str) -> _TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _TokenBucket(
                self.config.quota_tokens, self.config.quota_refill)
        return bucket

    def _charge(self, tenant: str, cells: int = 1) -> None:
        bucket = self._bucket(tenant)
        if not bucket.take(float(cells)):
            self._c_rejected_quota.inc()
            raise QuotaExceeded(tenant, bucket.retry_after(float(cells)))

    def _admit(self) -> None:
        # Count records, not semaphore waiters: a submitted-but-not-yet-
        # scheduled task must already occupy its slot, or a burst of
        # submits would all pass before any task got to run.
        active = sum(1 for r in self.records.values() if r.state in _ACTIVE)
        limit = self.config.max_inflight + self.config.queue_depth
        if active >= limit:
            self._c_rejected_admission.inc()
            raise AdmissionFull(active, limit)

    def _new_id(self) -> str:
        n = self._next_seq
        self._next_seq += 1
        return f"s{n:04d}-{uuid.uuid4().hex[:8]}"

    def _make_record(self, **kwargs) -> SessionRecord:
        return SessionRecord(journal=self.journal, **kwargs)

    def _gc_done(self) -> None:
        done = [r for r in self.records.values() if r.state in TERMINAL_STATES]
        excess = len(done) - _KEEP_DONE
        if excess > 0:
            done.sort(key=lambda r: r.created)
            for rec in done[:excess]:
                self.records.pop(rec.id, None)
                if self.journal is not None:
                    self.journal.forget(rec.id)

    def _register(self, rec: SessionRecord,
                  entry: Optional[dict] = None) -> None:
        """Add a record and journal it.  A record not yet in
        :attr:`records` is new, so its journal opens with the admission;
        ``entry`` is then appended."""
        if rec.id not in self.records:
            self.records[rec.id] = rec
            if self.journal is not None:
                self.journal.admit(rec.id, rec.tenant, rec.request.to_wire(),
                                   _admission_n(rec.id), parent=rec.parent)
        if entry is not None and self.journal is not None:
            self.journal.record(rec.id, entry)

    def _launch(self, rec: SessionRecord, entry: Optional[dict] = None,
                resume: bool = False) -> SessionRecord:
        """The one way an admitted record starts running (submit, fork,
        resume, recovery): register and journal it (see
        :meth:`_register`), make it the coalescing target for its
        request, and spawn its run — from its checkpoint when
        ``resume``."""
        self._register(rec, entry)
        self._by_hash[rec.request.content_hash()] = rec.id
        rec.task = asyncio.get_running_loop().create_task(
            self._run_record(rec, resume))
        return rec

    # ------------------------------------------------------------------
    # submit / status
    # ------------------------------------------------------------------
    def submit(self, tenant: str, request: RunRequest,
               coalesce: bool = True) -> SessionRecord:
        """Admit one cell; returns its (possibly shared) record.

        Raises :class:`QuotaExceeded` / :class:`AdmissionFull` (429) or
        :class:`ServiceUnavailable` (503, health machine left ``ok``) —
        the app layer turns those into status codes + Retry-After.
        """
        state, reasons = self._update_health()
        if self.health.refusing():
            self._c_shed_health.inc()
            raise ServiceUnavailable(state, reasons, self.health.retry_after())
        self._c_submitted.inc()
        self._charge(tenant)
        content = request.content_hash()

        if coalesce:
            live_id = self._by_hash.get(content)
            live = self.records.get(live_id) if live_id else None
            if live is not None and live.state in _ACTIVE:
                live.coalesced += 1
                self._c_coalesced.inc()
                return live

        if self.result_cache is not None and not request.trace:
            hit = self.result_cache.get(request)
            if hit is not None:
                self._c_cache_hits.inc()
                rec = self._make_record(
                    id=self._new_id(), tenant=tenant, request=request,
                    state="done", metrics=hit, from_cache=True)
                self._register(rec, rec.state_entry())
                self._gc_done()
                return rec

        self._admit()
        rec = self._launch(self._make_record(
            id=self._new_id(), tenant=tenant, request=request))
        self._gc_done()
        return rec

    def get(self, session_id: str) -> SessionRecord:
        try:
            return self.records[session_id]
        except KeyError:
            err = ServiceError(f"unknown session {session_id!r}")
            err.status = 404
            raise err from None

    def list_docs(self) -> list[dict]:
        return [rec.to_doc() for rec in
                sorted(self.records.values(), key=lambda r: r.created)]

    def stats(self) -> dict:
        by_state: dict[str, int] = {}
        for rec in self.records.values():
            by_state[rec.state] = by_state.get(rec.state, 0) + 1
        return {
            "uptime": round(time.monotonic() - self.started, 3),
            "sessions": by_state,
            "inflight": self._running,
            "queued": self._queued,
            "max_inflight": self.config.max_inflight,
            "queue_depth": self.config.queue_depth,
            "submitted": self._c_submitted.value,
            "coalesced": self._c_coalesced.value,
            "cache_hits": self._c_cache_hits.value,
            "rejected_quota": self._c_rejected_quota.value,
            "rejected_admission": self._c_rejected_admission.value,
            "shed_health": self._c_shed_health.value,
            "health": self.health.state,
            "slice_failures": self._c_slice_failures.value,
            "slice_timeouts": self._c_slice_timeouts.value,
            "recovered": self._c_recovered.value,
            "journal": {
                "enabled": self.journal is not None,
                "sessions": len(self.journal) if self.journal else 0,
                "write_failures":
                    self.journal.write_failures if self.journal else 0,
            },
            "tenants": {
                name: round(bucket.tokens, 2)
                for name, bucket in sorted(self._buckets.items())
            },
            "store": self.store.stats(),
        }

    def metrics_doc(self) -> dict:
        """The ``GET /v1/metrics`` document: the registry snapshot in the
        shared ``repro.report/1`` envelope (same wire-versioning
        discipline as the v1 schema — clients reject unknown shapes)."""
        # point-in-time gauges alongside the counters/histograms
        self.metrics.gauge("service.inflight").set(self._running)
        self.metrics.gauge("service.queued").set(self._queued)
        self.metrics.gauge("service.sessions").set(len(self.records))
        self.metrics.gauge("service.uptime_s").set(
            round(time.monotonic() - self.started, 3))
        return make_report(
            "service.metrics",
            {"health": self.health.state},
            registry=self.metrics,
        )

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health_doc(self) -> dict:
        """The ``GET /v1/healthz`` document (state + reasons).

        ``ok`` means "alive and admitting new work" — a busy queue
        leaves it True (excess submits get per-request 429s); only
        fault-mode refusal (journal/slice trouble) turns it False.
        ``state``/``reasons`` carry the full nuance either way.
        """
        state, reasons = self._update_health()
        doc = {
            "ok": not self.health.refusing(),
            "state": state,
            "reasons": reasons,
            "service": "repro",
            "uptime": round(time.monotonic() - self.started, 3),
        }
        if state != "ok":
            doc["retry_after"] = self.health.retry_after()
        return doc

    def _update_health(self) -> tuple[str, list[str]]:
        """Re-evaluate health; once it clears, resume the sessions it
        parked.  Parked sessions feed neither fault signal, so while
        refusing, first re-test both — one journal re-put, and the slice
        window clears once no session holds a slot — and while any stay
        parked, re-run ``retry_after()`` seconds after the last call, so
        nothing needs to probe.  Load-only degradation (a busy queue) has
        no side effects: admission control already sheds it."""
        if self.health.refusing():
            if self.journal is not None:
                self.journal.retry_failed()
            if self._running == 0:
                self.health.slice_window.clear()
        state, reasons = self.health.evaluate(
            self._queued, self.config.queue_depth)
        parked = [rec.id for rec in self.records.values()
                  if rec.state == "paused" and rec.health_paused]
        if not self.health.refusing():
            for session_id in parked:
                try:
                    self.resume(session_id)
                except AdmissionFull:
                    break  # still parked; the re-test below retries
        if self._recheck is not None:
            self._recheck.cancel()
        if any(self.records[sid].state == "paused" for sid in parked):
            self._recheck = asyncio.get_running_loop().call_later(
                self.health.retry_after(), self._update_health)
        return state, reasons

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Replay the journal after a restart (idempotent).

        Terminal sessions come back as queryable records, sessions a
        client paused keep their checkpoints, and interrupted
        (queued/running) ones — and the ones the health machine parked —
        are re-admitted, in their original admission order, resuming
        from their last checkpoint when one survives, from scratch
        otherwise; either way the completed result is bit-identical to
        an uninterrupted run.  Re-admission bypasses tenant quotas: the
        work was already paid for before the crash.

        Sessions that already have a live record are skipped, so calling
        this twice (or racing a duplicate submit) is a no-op for them.
        """
        summary = {"sessions": 0, "resumed": 0, "restarted": 0,
                   "terminal": 0, "paused": 0, "skipped": 0}
        if self.journal is None:
            return summary
        max_n = 0
        for doc in self.journal.load_all():
            sid = doc["id"]
            max_n = max(max_n, int(doc.get("n", 0)))
            if sid in self.records:
                summary["skipped"] += 1
                continue
            try:
                request = RunRequest.from_wire(doc.get("request") or {})
            except Exception:  # noqa: BLE001 - a bad request is skippable
                summary["skipped"] += 1
                continue
            summary["sessions"] += 1
            last = SessionJournal.last_state_entry(doc)
            state = last.get("state")
            if state not in TERMINAL_STATES and (
                    state != "paused" or last.get("cause") == "health"):
                state = "queued"  # interrupted, or parked by the health rule
            rec = self._make_record(
                id=sid, tenant=doc.get("tenant") or "public",
                request=request, parent=doc.get("parent"), state=state,
                metrics=last.get("metrics"), error=last.get("error"),
                from_cache=bool(last.get("from_cache")),
                # +1 so frames published after recovery stay strictly
                # above anything a pre-crash subscriber may have seen
                seq=SessionJournal.last_seq(doc) + 1,
                checkpoint_key=SessionJournal.last_checkpoint(doc))
            # registered before launch: its journal is already open
            self.records[sid] = rec
            if state != "queued":
                summary["terminal" if state in TERMINAL_STATES else "paused"] += 1
                continue
            # interrupted mid-flight: resume from the checkpoint if its
            # blob survived, restart from scratch if not — both paths
            # are deterministic, so the result is identical either way
            key = rec.checkpoint_key
            if key and self.store.get(_SESSIONS_NS, key) is None:
                rec.checkpoint_key = ""
            resume = bool(rec.checkpoint_key)
            self._launch(rec, {"kind": "recovered", "resume": resume,
                               "seq": rec.seq}, resume=resume)
            self._c_recovered.inc()
            summary["resumed" if resume else "restarted"] += 1
        self._next_seq = max(self._next_seq, max_n + 1)
        return summary

    # ------------------------------------------------------------------
    # control-plane verbs: look the event up, then apply it
    # ------------------------------------------------------------------
    async def pause(self, session_id: str) -> SessionRecord:
        """Checkpoint at the next slice boundary and park the session."""
        rec = self.get(session_id)
        if (rec.state, "park") not in _LIFECYCLE:
            raise _conflict(rec, "pause", "while it is queued or running")
        rec.pause_requested = True
        await rec.wait_leaving(rec.state)
        return rec

    def resume(self, session_id: str) -> SessionRecord:
        """Re-admit a paused session from its checkpoint."""
        rec = self.get(session_id)
        if (rec.state, "resume") not in _LIFECYCLE:
            raise _conflict(rec, "resume", "from the paused state")
        self._admit()
        rec.pause_requested = False
        rec.step("resume")
        return self._launch(rec, resume=True)

    def fork(self, session_id: str, tenant: Optional[str] = None) -> SessionRecord:
        """A new session continuing from a paused session's checkpoint."""
        parent = self.get(session_id)
        if (parent.state, "resume") not in _LIFECYCLE or not parent.checkpoint_key:
            raise _conflict(parent, "fork", "from the paused state")
        tenant = tenant or parent.tenant
        self._charge(tenant)
        self._admit()
        child = self._make_record(
            id=self._new_id(), tenant=tenant, request=parent.request,
            parent=parent.id, checkpoint_key=parent.checkpoint_key)
        self._launch(child, {"kind": "checkpoint",
                             "checkpoint": child.checkpoint_key,
                             "seq": child.seq}, resume=True)
        self._gc_done()
        return child

    async def cancel(self, session_id: str) -> SessionRecord:
        """Cancel a session (a no-op on one that already finished)."""
        rec = self.get(session_id)
        if (rec.state, "cancel") not in _LIFECYCLE:
            return rec
        rec.cancel_requested = True
        if rec.state == "running":
            await rec.wait_leaving("running")
        else:  # queued or paused: no slice is in flight
            if rec.task is not None:
                rec.task.cancel()
            rec.step("cancel")
        return rec

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------
    async def run_grid(self, tenant: str, requests: list[RunRequest],
                       jobs: Optional[int] = None) -> dict:
        """Batch execution through the runner's process-pool executor.

        This is the coalescing fast path for whole experiment grids: one
        request, many cells, shared result cache, `jobs` workers (None:
        the runner default).  One grid at a time — a second concurrent
        grid is shed with 429.
        """
        self._charge(tenant, cells=len(requests))
        if self._grid_sem.locked():
            self._c_rejected_admission.inc()
            raise AdmissionFull(1, 1)
        async with self._grid_sem:
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                self._pool,
                lambda: run_requests_report(
                    requests, jobs=jobs, cache=self.result_cache,
                    metrics=self.metrics),
            )
        return {
            "cells": len(requests),
            "jobs": report.jobs,
            "cache_hits": report.cache_hits,
            "executed": report.executed,
            "retried": report.retried,
            "summary": report.summary(),
            "results": [metrics_to_wire(m) for m in report.results],
        }

    # ------------------------------------------------------------------
    # the per-session run loop
    # ------------------------------------------------------------------
    async def _run_record(self, rec: SessionRecord, resume: bool = False) -> None:
        loop = asyncio.get_running_loop()
        try:
            # counted as queued only while waiting for a slot, so a
            # cancel during the wait un-counts it too
            self._queued += 1
            try:
                await self._sem.acquire()
            finally:
                self._queued -= 1
            self._running += 1
            try:
                await self._drive(rec, loop, resume)
            finally:
                self._running -= 1
                self._sem.release()
        except asyncio.CancelledError:
            if rec.state in _ACTIVE:
                rec.step("cancel")
            raise
        except Exception as exc:  # noqa: BLE001 - reported to the client
            rec.error = exc.error if isinstance(exc, SliceFailure) else {
                "code": "internal",
                "message": f"{type(exc).__name__}: {exc}",
                "exception": type(exc).__name__}
            rec.step("fail", error=rec.error)
        finally:
            if self._by_hash.get(rec.request.content_hash()) == rec.id \
                    and rec.state not in _ACTIVE:
                self._by_hash.pop(rec.request.content_hash(), None)
        # a freed slot re-tests health (not on cancel: shutdown resumes nothing)
        self._update_health()

    async def _drive(self, rec: SessionRecord, loop, resume: bool) -> None:
        rec.session = await self._load_session(rec, loop, strict=resume)
        slice_events = max(1, self.config.slice_events)
        while True:
            # the one slice-boundary check: cancel, park, start/checkpoint
            if rec.cancel_requested:
                self._drop_auto_checkpoint(rec)
                rec.step("cancel")
                return
            if rec.pause_requested or self.health.refusing():
                rec.health_paused = not rec.pause_requested
                if await self._checkpoint(rec, loop):
                    rec.step("park", checkpoint=rec.checkpoint_key)
                    return
            if rec.state == "queued":
                # queue wait: admission (record creation) → first slice
                self._h_wait.observe(max(0.0, time.monotonic() - rec.created))
                run_started = time.monotonic()
                rec.step("start")
            elif (self.journal is not None
                    and self.config.checkpoint_every_slices > 0
                    and rec.slices % self.config.checkpoint_every_slices == 0):
                await self._checkpoint(rec, loop, auto=True)

            t0 = time.monotonic()
            e0, _ = rec.session.progress()
            metrics = await self._run_slice(rec, loop, slice_events)
            wall = max(1e-9, time.monotonic() - t0)
            rec.slices += 1
            # _run_slice may have rebuilt rec.session; re-read it
            rec.events_processed, rec.sim_now = rec.session.progress()
            rec.events_per_sec = max(0.0, rec.events_processed - e0) / wall
            rec.publish(self._progress_frame(rec))

            if metrics is not None:
                rec.metrics = metrics
                self._note_membership(metrics)
                if (self.result_cache is not None and not rec.request.trace
                        and not rec.restored):
                    # a straight start-to-finish run is exactly what
                    # execute_request() would have produced: cache it
                    # (failures here lose a cache entry, not a result)
                    try:
                        self.result_cache.put(rec.request, metrics)
                    except Exception:  # noqa: BLE001
                        self.health.note_journal_failure()
                self._drop_auto_checkpoint(rec)
                self._h_exec.observe(max(0.0, time.monotonic() - run_started))
                rec.step("finish")
                rec.publish({"type": "result",
                             "metrics": metrics_to_wire(metrics)})
                return

    def _note_membership(self, metrics) -> None:
        """Roll a finished run's membership epoch log into the registry.

        ``lost_tasks`` staying at zero across every epoch of every run is
        the service-visible form of the conservation invariant — a
        non-zero value here means some run leaked or duplicated work at
        an epoch boundary.
        """
        extra = getattr(metrics, "extra", None) or {}
        summary = extra.get("membership")
        if not isinstance(summary, dict):
            return
        transitions = summary.get("transitions") or []
        self._c_mem_epochs.inc(len(transitions))
        for entry in transitions:
            kind = entry.get("kind")
            if kind == "join":
                self._c_mem_joins.inc()
            elif kind == "leave":
                self._c_mem_leaves.inc()
            elif kind == "election":
                self._c_mem_elections.inc()
            self._c_mem_lost_tasks.inc(max(0, int(entry.get("lost_delta", 0))))

    async def _run_slice(self, rec: SessionRecord, loop, max_events: int):
        """One supervised slice: deadline, rebuild-on-failure, backoff.

        Returns the slice result (metrics or ``None``); raises
        :class:`SliceFailure` once the retry budget is spent.  A timed
        out worker thread is *abandoned*, not killed — slices are
        bounded, so it drains on its own while the retry proceeds on a
        session rebuilt from the last checkpoint (or from scratch; both
        are deterministic, so the eventual result is unchanged).
        """
        cfg = self.config
        policy = self._slice_policy
        rng = policy.rng(rec.id)
        attempts = 1 + max(0, cfg.slice_retries)
        failure: dict = {}
        for attempt in range(attempts):
            sess = rec.session
            hook = self.slice_hook

            def work(sess=sess, attempt=attempt):
                if hook is not None:
                    hook(rec, attempt)
                return sess.run(max_events=max_events)

            future = loop.run_in_executor(self._pool, work)
            try:
                if cfg.slice_deadline and cfg.slice_deadline > 0:
                    metrics = await asyncio.wait_for(
                        future, cfg.slice_deadline)
                else:
                    metrics = await future
                self.health.note_slice(True)
                return metrics
            except asyncio.CancelledError:
                raise
            except asyncio.TimeoutError:
                self._c_slice_timeouts.inc()
                failure = {
                    "code": "slice_timeout",
                    "message": f"slice {rec.slices + 1} exceeded the "
                               f"{cfg.slice_deadline:g}s deadline",
                    "deadline": cfg.slice_deadline,
                }
            except Exception as exc:  # noqa: BLE001 - structured below
                failure = {
                    "code": "slice_failed",
                    "message": f"{type(exc).__name__}: {exc}",
                    "exception": type(exc).__name__,
                }
            self._c_slice_failures.inc()
            self.health.note_slice(False)
            failure["attempt"] = attempt + 1
            failure["attempts"] = attempts
            if attempt + 1 >= attempts:
                break
            rec._trace_cursor = 0
            rec.session = await self._load_session(rec, loop, strict=False)
            delay = policy.delay(attempt, rng)
            rec.publish({"type": "retry", "state": rec.state,
                         "attempt": attempt + 1, "error": dict(failure),
                         "delay": round(delay, 3)})
            if delay > 0:
                await asyncio.sleep(delay)
        raise SliceFailure(failure)

    async def _load_session(self, rec: SessionRecord, loop, strict: bool):
        """The record's :class:`~repro.session.Session`: restored from its
        checkpoint (marking the record ``restored``), or built from
        scratch when it has none.

        ``strict`` (resume, fork, recovery from a checkpoint): a vanished
        or corrupt blob raises :class:`SnapshotError` naming the key.
        Otherwise (a supervision retry) the session falls back to
        scratch, quarantining a corrupt blob first.
        """
        from repro.session import Session

        key = rec.checkpoint_key
        data = self.store.get(_SESSIONS_NS, key) if key else None
        snap = None
        if data is not None:
            try:
                snap = Snapshot.from_bytes(data, source=f"sessions/{key}")
            except Exception:  # noqa: BLE001 - corrupt checkpoint
                if strict:
                    raise
                self.store.quarantine(_SESSIONS_NS, key)
                rec.checkpoint_key = ""
        elif strict:
            raise SnapshotError(
                f"session checkpoint {key!r} has vanished from the store")
        if snap is None:
            return await loop.run_in_executor(
                self._pool, lambda: self._build_session(rec))
        rec.restored = True
        return await loop.run_in_executor(
            self._pool, lambda: Session.restore(snap))

    # ------------------------------------------------------------------
    def _build_session(self, rec: SessionRecord):
        """Construct (in a worker thread) the Session for one record."""
        from repro.obs import Tracer
        from repro.session import Session

        sess = Session.from_request(rec.request)
        if rec.request.trace:
            # bounded tracer: live frames only need the tail, and an
            # unbounded record list on a long-running service is a leak
            sess.tracer = Tracer(max_records=_TRACE_MAX_RECORDS)
        return sess

    async def _checkpoint(self, rec: SessionRecord, loop,
                          auto: bool = False) -> bool:
        """Checkpoint the session into the store and journal it; returns
        whether it was written.

        Pause checkpoints (``<id>-<slices>``) are fork points: a failed
        write fails a client's pause, and the session with it, but a
        health park that fails runs the session on.  Auto-checkpoints
        (``<id>-auto-<slices>``, ``auto`` in meta and journal) are
        periodic crash-recovery scaffolding: a failed write costs
        recovery granularity, never the running session.  Either kind
        supersedes (and deletes) a previous auto-checkpoint.
        """
        tag = {"auto": True} if auto else {}
        key = f"{rec.id}-{'auto-' if auto else ''}{rec.slices:04d}"
        try:
            snap = await loop.run_in_executor(
                self._pool,
                lambda: rec.session.checkpoint(
                    {"service_session": rec.id, "tenant": rec.tenant, **tag}),
            )
            self.store.put(_SESSIONS_NS, key, snap.to_bytes())
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - degrade, don't kill the run
            if not (auto or rec.health_paused):
                raise
            self.health.note_journal_failure()
            return False
        self._drop_auto_checkpoint(rec)
        rec.checkpoint_key = key
        if self.journal is not None:
            self.journal.record(rec.id, {
                "kind": "checkpoint", "checkpoint": key, **tag,
                "slices": rec.slices, "events": rec.events_processed,
                "seq": rec.seq})
        return True

    def _drop_auto_checkpoint(self, rec: SessionRecord) -> None:
        """Auto-checkpoints are recovery scaffolding, not fork points —
        drop one once a newer checkpoint supersedes it or the session
        can't be resumed.  (Pause checkpoints, and the auto-checkpoint of
        a *failed* session — useful for forensics — are kept.)"""
        if rec.checkpoint_key and "-auto-" in rec.checkpoint_key:
            self.store.delete(_SESSIONS_NS, rec.checkpoint_key)
            rec.checkpoint_key = ""

    def _progress_frame(self, rec: SessionRecord) -> dict:
        frame = {
            "type": "progress",
            "state": rec.state,
            "events_processed": rec.events_processed,
            "sim_now": rec.sim_now,
            "events_per_sec": round(rec.events_per_sec, 1),
            "slice": rec.slices,
        }
        sess = rec.session
        tracer = getattr(sess, "tracer", None) if sess is not None else None
        if tracer is not None:
            records = tracer.records
            tail = records[rec._trace_cursor:]
            rec._trace_cursor = len(records)
            counters: dict[str, float] = {}
            phases: list[dict] = []
            for ph, node, cat, name, t, x, _args in tail:
                if ph == "C":
                    counters[f"{cat}:{name}"] = x
                elif ph == "X" and cat == "phase":
                    phases.append({"name": name, "node": node,
                                   "t": t, "dur": x})
            frame["trace"] = {
                "records": len(records),
                "new": len(tail),
                "dropped": tracer.dropped,
                "counters": counters,
                "phases": phases[-8:],
            }
        return frame

    # ------------------------------------------------------------------
    # subscriptions / shutdown
    # ------------------------------------------------------------------
    def subscribe(self, session_id: str,
                  since: Optional[int] = None
                  ) -> tuple[SessionRecord, asyncio.Queue]:
        """A frame queue for one WebSocket consumer.

        The first frame is a hello with the current status.  With
        ``since`` (a reconnecting client's last-seen ``seq``), logged
        frames above that sequence are replayed before live ones.  A
        finished session always ends with a terminal frame — replayed
        from the log when it's still there, synthesized otherwise — so
        late or reconnecting subscribers are never stranded."""
        rec = self.get(session_id)
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        rec.subscribers.append(queue)
        queue.put_nowait({"type": "hello", "session": rec.id,
                          "state": rec.state, "status": rec.to_doc()})
        replayed_terminal = False
        if since is not None:
            for frame in list(rec.frame_log):
                if frame.get("seq", 0) <= since:
                    continue
                try:
                    queue.put_nowait(frame)
                except asyncio.QueueFull:
                    break
                if is_terminal_frame(frame):
                    replayed_terminal = True
        if rec.state in TERMINAL_STATES and not replayed_terminal:
            terminal = {"type": "result" if rec.metrics is not None else "state",
                        "session": rec.id, "state": rec.state,
                        "seq": rec.seq}
            if rec.metrics is not None:
                terminal["metrics"] = metrics_to_wire(rec.metrics)
            if rec.error is not None:
                terminal["error"] = rec.error
            queue.put_nowait(terminal)
        return rec, queue

    def unsubscribe(self, rec: SessionRecord, queue: asyncio.Queue) -> None:
        try:
            rec.subscribers.remove(queue)
        except ValueError:
            pass

    async def shutdown(self) -> None:
        """Cancel every active session and stop the worker pool."""
        tasks = [rec.task for rec in self.records.values()
                 if rec.task is not None and not rec.task.done()]
        for rec in self.records.values():
            rec.cancel_requested = True
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._recheck is not None:
            self._recheck.cancel()
        self._pool.shutdown(wait=False, cancel_futures=True)


def _conflict(rec: SessionRecord, verb: str, requirement: str) -> ServiceError:
    err = ServiceError(
        f"cannot {verb} session {rec.id} in state {rec.state!r}; "
        f"{verb} is valid {requirement}"
    )
    err.status = 409
    return err
