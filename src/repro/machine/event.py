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
* There is exactly one loop that executes callbacks, and its only bound
  is an event budget (``max_events``).  Every slice — service slices,
  preemption, ``run --checkpoint-every`` — is a budgeted run, and a
  traced run drives the same loop in chunks that end on the tracer's
  counter-sample boundaries, so tracing adds no per-event check.
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

#: Traced runs sample the ``sim`` counters every this many events
#: (cumulative, so sliced and whole runs sample at the same events).
_TRACE_STRIDE = 256


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
        # Observability: None means untraced — run() drains in one call,
        # checked once per run, not per event.
        self._tracer = None

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
    def attach_tracer(self, tracer) -> None:
        """Sample ``sim`` counters into ``tracer`` while :meth:`run` runs.

        A traced run emits the events-processed and live-queue-length
        counters every :data:`_TRACE_STRIDE` events.  Passing ``None``
        detaches; the untraced run pays one identity check per
        :meth:`run` call, never per event.
        """
        self._tracer = tracer

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
        place (``_drain`` holds a local alias to it)."""
        self._queue[:] = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains or ``max_events`` additional
        events have been executed.

        A run stopped by ``max_events`` leaves the clock at the last
        executed event; the next :meth:`run` continues from there, and
        any slicing of a run is indistinguishable from running it whole.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            tr = self._tracer
            if tr is None:
                self._drain(max_events)
                return
            # Traced: drain in chunks that end on each cumulative
            # _TRACE_STRIDE boundary and sample the ``sim`` counters
            # there.  The final sample is taken only when no live event
            # remains, so a run sliced by max_events (checkpoint/resume,
            # preemption) emits the byte-identical record stream of an
            # uninterrupted run.
            left = max_events
            while left is None or left > 0:
                chunk = _TRACE_STRIDE - self._events_processed % _TRACE_STRIDE
                if left is not None:
                    chunk = min(chunk, left)
                    left -= chunk
                if self._drain(chunk) < chunk:
                    break  # queue drained
                done = self._events_processed
                if done % _TRACE_STRIDE == 0:
                    tr.counter(0, "sim", "events_processed", self._now, done)
                    tr.counter(0, "sim", "pending_events", self._now,
                               self.pending())
            if self.pending() == 0:
                tr.counter(0, "sim", "events_processed", self._now,
                           self._events_processed)
        finally:
            self._running = False

    def _drain(self, max_events: Optional[int]) -> int:
        """The event loop: pop, skip cancelled entries, run the callback,
        count the budget down.  Returns the number of events executed.

        ``None`` starts the budget at -1, which never counts down to 0,
        so an unbounded run pays a truth test per event, not a compare.
        """
        q = self._queue
        budget = left = -1 if max_events is None else max_events
        try:
            while q and left:
                t, _p, _s, ev = _heappop(q)
                if ev.cancelled:
                    self._dead -= 1
                    continue
                self._now = t
                fn, args = ev.fn, ev.args
                ev.fn = None
                ev.args = ()
                fn(*args)
                left -= 1
        finally:
            self._events_processed += budget - left
        return budget - left
