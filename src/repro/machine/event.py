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

__all__ = ["EventHandle", "Simulator", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Compaction trigger: rebuild the heap when at least this many events are
#: dead *and* they make up at least half the queue.  The floor keeps tiny
#: queues from compacting on every cancel; the ratio makes compaction
#: amortized O(1) per cancellation.
_COMPACT_MIN_DEAD = 64


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
