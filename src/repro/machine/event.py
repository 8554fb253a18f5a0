"""Discrete-event simulation engine.

The whole reproduction runs on a single-threaded, deterministic
discrete-event simulator: every processor of the simulated multicomputer,
every message in flight, and every task execution is an event on one
global virtual clock.  Determinism matters — the paper's experiments are
averages over repeated runs, and reproducibility of a single run (given a
seed) is what makes the test suite meaningful.

Design notes
------------
* Events are ordered by ``(time, priority, seq)``.  ``seq`` is a global
  monotone counter so that events scheduled earlier at the same timestamp
  fire first; this gives a total, platform-independent order.
* A heap entry is the plain tuple ``(time, priority, seq, handle)``.
  ``seq`` is unique, so ``heapq`` sift comparisons are C tuple
  comparisons that are always decided before reaching the handle — no
  Python-level ``__lt__`` frame per comparison.  The event loop is the
  hottest code in the repository — a full Table-I grid is hundreds of
  millions of events — so per-event allocations are kept to the entry
  tuple plus the handle.
* The handle (:class:`EventHandle`) is one ``__slots__`` object per
  scheduled action, allocated without a Python-level ``__init__`` frame.
  It carries the callback, its arguments, the due ``time`` and the
  cancellation flag; it is what :meth:`Simulator.schedule` returns.
* Cancellation is lazy: :meth:`EventHandle.cancel` marks the event dead
  and the main loop skips it.  This is O(1) and avoids heap surgery.
  Dead events are *compacted* away once they dominate the queue, so
  protocols that cancel heavily (retry timers, refresh ticks) cannot grow
  the heap without bound: the queue length is bounded by ~2x the live
  event count.
* The simulator itself knows nothing about processors or messages; those
  live in :mod:`repro.machine.node` and :mod:`repro.machine.network`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["EventHandle", "EventLanes", "Simulator", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Compaction trigger: rebuild the heap when at least this many events are
#: dead *and* they make up at least half the queue.  The floor keeps tiny
#: queues from compacting on every cancel; the ratio makes compaction
#: amortized O(1) per cancellation.
_COMPACT_MIN_DEAD = 64

#: Below this many due events, a windowed drain takes plain heap pops;
#: batch extraction + sort only pays for itself on wide frontiers.
_BATCH_MIN = 192


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (negative delays, time travel)."""


class EventHandle:
    """A scheduled event; also the handle :meth:`Simulator.schedule` returns.

    The heap holds it as the last field of a ``(time, priority, seq,
    handle)`` entry.  ``time`` is the virtual time at which the event is
    (was) due.  ``fn`` is cleared once the event has fired or been
    cancelled, freeing the callback closure and payload immediately.
    Public surface: :meth:`cancel`, :attr:`cancelled`, :attr:`time`.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.fn is None:
            # already executed: nothing left in the queue to account for
            return
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is None:
            # extracted by a batched drain: no longer in the queue, so
            # there is nothing to account for — the dispatch loop skips
            # cancelled entries by flag
            return
        sim._dead += 1
        if sim._dead >= _COMPACT_MIN_DEAD and sim._dead * 2 >= len(sim._queue):
            sim._compact()


class Simulator:
    """A minimal but fully deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(2.0, out.append, "b")
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> sim.run()
    >>> out
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        #: heap of ``(time, priority, seq, handle)`` entries
        self._queue: list[tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._dead = 0  # cancelled events still sitting in the queue
        # Observability: None means untraced — run() takes the exact
        # pre-observability hot loop, checked once per call, not per event.
        self._tracer = None
        self._trace_stride = 256  # counter sample period (events)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events.  O(1)."""
        return len(self._queue) - self._dead

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer, stride: int = 256) -> None:
        """Route :meth:`run` through the instrumented loop.

        The traced loop emits ``sim`` counters (events processed, live
        queue length) every ``stride`` events.  Passing ``None`` (or a
        tracer whose ``enabled`` is False) restores the untraced hot
        loop; the disabled path costs exactly one identity check per
        ``run()`` call, never per event.
        """
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._trace_stride = max(1, int(stride))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``priority`` breaks timestamp ties: lower fires first.  The default
        of 0 plus the insertion sequence number already yields a total
        deterministic order, so ``priority`` is only needed when a protocol
        requires, e.g., "deliveries before timers".
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Allocation-lean construction: skip the __init__ frame entirely.
        t = self._now + delay
        ev = EventHandle.__new__(EventHandle)
        ev.time = t
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev._sim = self
        _heappush(self._queue, (t, priority, next(self._seq), ev))
        return ev

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, current time is {self._now!r}"
            )
        return self.schedule(time - self._now, fn, *args, priority=priority)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.  Mutates the queue in
        place (``run`` holds a local alias to it)."""
        self._queue[:] = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def _peek_live(self) -> Optional[EventHandle]:
        """Next runnable event, popping any dead ones off the top."""
        q = self._queue
        while q:
            ev = q[0][3]
            if not ev.cancelled:
                return ev
            _heappop(q)
            self._dead -= 1
        return None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        ev = self._peek_live()
        if ev is None:
            return False
        _heappop(self._queue)
        t = ev.time
        if t < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue time went backwards")
        self._now = t
        self._events_processed += 1
        fn, args = ev.fn, ev.args
        ev.fn = None
        ev.args = ()
        fn(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` additional events have been executed.

        ``until`` is inclusive: events at exactly ``until`` still fire.
        On exit — whether the queue drained or ``max_events`` stopped the
        loop — the clock is advanced to ``until`` if and only if no live
        event remains at or before ``until`` (mirroring how a real machine
        would sit idle until the deadline; a run stopped mid-stream by
        ``max_events`` with work still due must *not* jump the clock past
        that work).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        q = self._queue
        executed = 0
        try:
            if self._tracer is not None:
                executed = self._run_traced(until, max_events)
                return
            if until is None and max_events is None:
                # Hot path: drain the queue with no per-event bound checks.
                while q:
                    t, _p, _s, ev = _heappop(q)
                    if ev.cancelled:
                        self._dead -= 1
                        continue
                    self._now = t
                    fn, args = ev.fn, ev.args
                    ev.fn = None
                    ev.args = ()
                    fn(*args)
                    executed += 1
                return
            while q:
                t, _p, _s, ev = q[0]
                if ev.cancelled:
                    _heappop(q)
                    self._dead -= 1
                    continue
                if until is not None and t > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                _heappop(q)
                self._now = t
                fn, args = ev.fn, ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                executed += 1
            if until is not None and self._now < until:
                nxt = self._peek_live()
                if nxt is None or nxt.time > until:
                    self._now = until
        finally:
            self._events_processed += executed
            self._running = False

    def _run_traced(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The instrumented twin of the :meth:`run` loop.

        Identical event semantics (same ordering, same ``until``
        clock-advance rule), plus periodic ``sim`` counter samples so a
        trace shows event-loop pressure over simulated time.  Kept
        separate so the untraced loop carries zero per-event overhead.
        """
        q = self._queue
        tr = self._tracer
        stride = self._trace_stride
        executed = 0
        while q:
            t, _p, _s, ev = q[0]
            if ev.cancelled:
                _heappop(q)
                self._dead -= 1
                continue
            if until is not None and t > until:
                break
            if max_events is not None and executed >= max_events:
                break
            _heappop(q)
            self._now = t
            fn, args = ev.fn, ev.args
            ev.fn = None
            ev.args = ()
            fn(*args)
            executed += 1
            # Stride on the *cumulative* count, and emit the final sample
            # only when the queue actually drains: a run sliced by
            # max_events (checkpoint/resume, preemption) must produce the
            # byte-identical record stream of an uninterrupted run.
            done = self._events_processed + executed
            if done % stride == 0:
                tr.counter(0, "sim", "events_processed", self._now, done)
                tr.counter(0, "sim", "pending_events", self._now, self.pending())
        if until is not None and self._now < until:
            nxt = self._peek_live()
            if nxt is None or nxt.time > until:
                self._now = until
        if self._peek_live() is None:
            tr.counter(0, "sim", "events_processed", self._now,
                       self._events_processed + executed)
        return executed

    # ------------------------------------------------------------------
    # windowed drain (sharded execution)
    # ------------------------------------------------------------------
    def drain_window(self, end: float) -> int:
        """Execute every live event due at or before ``end``, in exact
        ``(time, priority, seq)`` order, and return how many ran.

        This is the shard engine's inner step: a conservative time window
        is drained to its boundary, cross-shard traffic is flushed, and
        the next window begins.  Two properties distinguish it from
        ``run(until=end)``:

        * the clock is **never** advanced past the last executed event —
          stepping a simulation window by window must leave ``now`` (and
          hence every trace timestamp and metric) exactly where an
          uninterrupted ``run()`` would have left it;
        * the untraced path drains wide frontiers as *batches*: all due
          entries are pulled out of the heap in one sweep, sorted, and
          executed without per-event heap sifts.  Events scheduled by
          handlers mid-batch are merged back in entry order, so the
          execution sequence is identical to the per-event loop (the
          traced twin, and the property tests in ``tests/shard``, pin
          this down).

        A sequence of ``drain_window`` calls with increasing ``end``
        therefore executes the byte-identical event sequence of a single
        ``run()`` — windows only insert observation points.
        """
        if self._running:
            raise SimulationError("Simulator.drain_window is not reentrant")
        self._running = True
        executed = 0
        try:
            if self._tracer is not None:
                executed = self._drain_window_traced(end)
            else:
                executed = self._drain_window_batched(end)
        finally:
            self._events_processed += executed
            self._running = False
        return executed

    def _drain_plain(self, end: float) -> int:
        """Per-event windowed drain: heap pops until nothing is due."""
        q = self._queue
        executed = 0
        while q:
            t, _p, _s, ev = q[0]
            if ev.cancelled:
                _heappop(q)
                self._dead -= 1
                continue
            if t > end:
                break
            _heappop(q)
            self._now = t
            fn, args = ev.fn, ev.args
            ev.fn = None
            ev.args = ()
            fn(*args)
            executed += 1
        return executed

    def _drain_window_batched(self, end: float) -> int:
        """Batched windowed drain.

        Wide frontiers (>= ``_BATCH_MIN`` due events) are extracted from
        the heap in one sweep and ordered with a single sort (entries
        compare in C, exactly as the heap orders them); the residual heap
        then only ever holds beyond-window events plus whatever handlers
        schedule mid-batch, and those are merged back in by entry
        comparison before each batch entry.  Narrow frontiers fall
        through to plain heap pops, where the extraction overhead would
        dominate.
        """
        q = self._queue
        executed = 0
        while True:
            nxt = self._peek_live()
            if nxt is None or nxt.time > end:
                return executed
            if len(q) < _BATCH_MIN:
                executed += self._drain_plain(end)
                continue
            batch = [e for e in q if e[0] <= end]
            if len(batch) < _BATCH_MIN:
                executed += self._drain_plain(end)
                continue
            q[:] = [e for e in q if e[0] > end]
            heapq.heapify(q)
            batch.sort()
            # Extracted handles leave the queue here: detach them from the
            # simulator so a cancel() between extraction and dispatch does
            # not bump _dead for an event no longer in the queue (the
            # dispatch loop below skips cancelled entries by flag).
            dead = 0
            for e in batch:
                ev = e[3]
                ev._sim = None
                dead += ev.cancelled
            # Events already dead at extraction leave _dead with them.
            if dead:
                self._dead = max(0, self._dead - dead)
            for entry in batch:
                # merge-in: anything scheduled mid-batch (or left in the
                # residual heap) that orders before this entry runs first
                while q:
                    head = q[0]
                    if not head[3].cancelled and head > entry:
                        break
                    _heappop(q)
                    ev = head[3]
                    if ev.cancelled:
                        self._dead -= 1
                        continue
                    self._now = head[0]
                    fn, args = ev.fn, ev.args
                    ev.fn = None
                    ev.args = ()
                    fn(*args)
                    executed += 1
                ev = entry[3]
                if ev.cancelled:
                    continue
                self._now = entry[0]
                fn, args = ev.fn, ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                executed += 1
            # loop: handlers may have scheduled more work inside the window

    def _drain_window_traced(self, end: float) -> int:
        """Instrumented windowed drain.

        Mirrors ``_run_traced`` exactly — same stride counters on the
        cumulative event count, same final sample emitted only when the
        queue truly drains — so a window-stepped traced run produces the
        byte-identical record stream of an uninterrupted ``run()``.
        """
        q = self._queue
        tr = self._tracer
        stride = self._trace_stride
        executed = 0
        while q:
            t, _p, _s, ev = q[0]
            if ev.cancelled:
                _heappop(q)
                self._dead -= 1
                continue
            if t > end:
                break
            _heappop(q)
            self._now = t
            fn, args = ev.fn, ev.args
            ev.fn = None
            ev.args = ()
            fn(*args)
            executed += 1
            done = self._events_processed + executed
            if done % stride == 0:
                tr.counter(0, "sim", "events_processed", self._now, done)
                tr.counter(0, "sim", "pending_events", self._now, self.pending())
        if self._peek_live() is None:
            tr.counter(0, "sim", "events_processed", self._now,
                       self._events_processed + executed)
        return executed


class EventLanes:
    """Vectorized event-batch kernel for homogeneous event storms.

    The per-event simulator costs ~0.6 µs of pure Python dispatch per
    event (handle allocation, key tuple, heap sift, callback frame) —
    that is the real ceiling on events/sec, not heap algorithmics.  A
    *lane* sidesteps it: a homogeneous population of pending events is
    held as a numpy array of due times plus one batch-dispatch callable,
    and :meth:`drain_window` fires a whole same-window wave with a single
    Python call (``dispatch(times, idx)``) doing vectorized reschedules.

    Contract: ``dispatch`` must advance ``times[idx]`` in place — each
    selected slot either moves strictly forward in time or retires with
    ``np.inf``.  Within one window, a lane's due events are dispatched as
    arrays rather than in per-event key order, so lanes are only for
    populations whose *within-window* semantics are order-free
    (independent tick chains, arrival tallies, counters).  Results stay
    deterministic because waves alternate in fixed lane order and each
    dispatch is a pure function of ``(times, idx)``.  Heterogeneous,
    order-sensitive work stays on :class:`Simulator`; the shard worker
    runs both against the same window boundaries.
    """

    #: waves per drain_window call before assuming a stuck dispatch
    MAX_WAVES = 100_000

    __slots__ = ("_times", "_dispatch", "executed")

    def __init__(self) -> None:
        self._times: list[np.ndarray] = []
        self._dispatch: list[Callable[[np.ndarray, np.ndarray], None]] = []
        self.executed = 0

    def __len__(self) -> int:
        return len(self._times)

    def add_lane(self, times, dispatch) -> int:
        """Register a lane; returns its index.  ``times`` is copied.

        Slot indices within a lane are stable **only while the lane is
        never** :meth:`push`\\ ed **to**: a fixed-population lane (like
        LoadedStorm's tick lane) may keep per-slot state arrays aligned
        with ``times``, but :meth:`push` compacts retired slots and would
        silently desync them — see its docstring.
        """
        arr = np.array(times, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("lane times must be a 1-d array")
        self._times.append(arr)
        self._dispatch.append(dispatch)
        return len(self._times) - 1

    def times(self, lane: int) -> np.ndarray:
        """The live due-time array of ``lane`` (mutable, owned here)."""
        return self._times[lane]

    def push(self, lane: int, times) -> None:
        """Append new pending slots to a lane (e.g. remote arrivals).

        ``push`` may *compact* the lane (drop retired ``inf`` slots) to
        keep long-lived arrival lanes bounded, which shifts the indices
        of surviving slots.  Use it only on append-only lanes whose
        dispatch is a pure function of ``(times, idx)`` — never on a
        lane whose program keeps external per-slot state keyed by index.
        """
        arr = np.asarray(times, dtype=np.float64)
        if arr.size == 0:
            return
        cur = self._times[lane]
        # compact retired (inf) slots once they dominate, so long-lived
        # arrival lanes don't grow without bound
        if cur.size >= 1024:
            live = np.isfinite(cur)
            if int(live.sum()) * 2 < cur.size:
                cur = cur[live]
        self._times[lane] = np.concatenate((cur, arr))

    def next_time(self) -> float:
        """Earliest pending due time across lanes (``inf`` when idle)."""
        best = np.inf
        for arr in self._times:
            if arr.size:
                m = arr.min()
                if m < best:
                    best = m
        return float(best)

    def drain_window(self, end: float) -> int:
        """Fire every due event (time <= ``end``) in alternating waves.

        Each wave makes one ``dispatch`` call per lane with due slots;
        waves repeat until no lane has anything due, so multi-tick chains
        advance through the whole window.  Returns events executed.
        """
        executed = 0
        waves = 0
        progressed = True
        while progressed:
            progressed = False
            for times, dispatch in zip(self._times, self._dispatch):
                if not times.size:
                    continue
                idx = np.nonzero(times <= end)[0]
                if idx.size == 0:
                    continue
                dispatch(times, idx)
                executed += int(idx.size)
                progressed = True
            waves += 1
            if waves > self.MAX_WAVES:
                raise SimulationError(
                    "EventLanes.drain_window exceeded MAX_WAVES; a lane "
                    "dispatch is not advancing its due times"
                )
        self.executed += executed
        return executed
