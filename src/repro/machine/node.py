"""Processor node model.

Each simulated processor is a single non-preemptive CPU.  Everything that
costs processor time — executing a task, the software overhead of sending
or receiving a message, running a scheduling step — is an item on the
node's CPU queue, executed serially on the global virtual clock.  This is
what lets us decompose the makespan exactly the way Table I of the paper
does:

* ``Th`` (overhead)  = CPU time in the ``"overhead"`` category,
* task time          = CPU time in the ``"task"`` category,
* ``Ti`` (idle)      = makespan − overhead − task time, per node.

Protocols interact with a node through three things:

* :meth:`Node.on` — register a handler for a message kind;
* :meth:`Node.send` — send a message (charges sender software overhead,
  then injects into the network);
* :meth:`Node.exec_cpu` — charge arbitrary CPU time, with a completion
  callback.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .message import HEADER_BYTES, Message

if TYPE_CHECKING:  # pragma: no cover
    from .event import EventHandle
    from .machine import Machine

__all__ = ["Node"]

#: CPU-time categories tracked per node.
CATEGORIES = ("task", "overhead")


class Node:
    """One processor of the simulated multicomputer."""

    def __init__(self, rank: int, machine: "Machine") -> None:
        self.rank = rank
        self.machine = machine
        self.sim = machine.sim
        self._cpu_queue: deque[
            tuple[float, str, Optional[Callable[..., None]], tuple]
        ] = deque()
        self._cpu_busy = False
        self.cpu_time: dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self._handlers: dict[str, Callable[[Message], None]] = {}
        #: last virtual time this node finished any CPU item (for makespan).
        self.last_active = 0.0
        #: scratch storage for protocol state, keyed by protocol name.
        self.state: dict[str, Any] = {}
        #: observability: set by Machine.attach_tracer; None = no tracing
        #: (one identity check per finished CPU item, nothing else).
        self.tracer = None
        #: fault injector: set by Machine.attach_faults; None = fault-free
        #: (one identity check per dispatch / reliable send, nothing else).
        self.faults = None
        #: fail-stop flag: a crashed node executes nothing and receives
        #: nothing from the moment of the crash on.
        self.crashed = False
        #: transient stall: queued CPU work is held, nothing is lost.
        self.stalled = False
        #: lease fence: a live node falsely declared dead behaves exactly
        #: like a crashed one (executes nothing, receives nothing) until
        #: the failure detector revives it — which is what keeps a false
        #: positive from double-executing rescued tasks.
        self.fenced = False
        #: bumped on fence/crash-like resets; in-flight CPU bursts carry
        #: the epoch they started under and are voided on mismatch.
        self._cpu_epoch = 0
        #: elastic-membership lifecycle: ``"member"`` (default),
        #: ``"standby"`` (powered but not admitted — carries membership
        #: protocol traffic only, never tasks), ``"joining"``,
        #: ``"draining"`` (handing work off before departing), or
        #: ``"left"``.  The default keeps every non-elastic run on the
        #: pre-membership code paths.
        self.membership = "member"
        #: set when a drained node goes dark.  Unlike ``crashed`` this is
        #: voluntary: nothing was lost, and unlike ``fenced`` there is no
        #: lease/refutation — a departed node stays dark until a future
        #: join handshake readmits it.
        self.departed = False

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages of ``kind``.

        Exactly one handler per kind; re-registration replaces (protocols
        are set up once per run).
        """
        self._handlers[kind] = handler

    def dispatch(self, msg: Message) -> None:
        """Entry point used by the machine when a message arrives.

        Charges the receive software overhead, then runs the handler.
        When a fault injector is attached it gets to veto (crashed node,
        duplicate of an already-delivered reliable message) or wrap (mark
        ground-truth delivery, emit the ack) the handler first.
        """
        try:
            handler = self._handlers[msg.kind]
        except KeyError:
            raise RuntimeError(
                f"node {self.rank}: no handler for message kind {msg.kind!r}"
            ) from None
        if self.faults is not None:
            handler = self.faults.intercept_dispatch(self, msg, handler)
            if handler is None:
                return
        self.exec_cpu(self.machine.latency.endpoint_cpu(msg.size), "overhead",
                      handler, msg)

    def send(
        self,
        dest: int,
        kind: str,
        payload: Any = None,
        size: int | None = None,
        tasks_carried: int = 0,
        reliable: bool = False,
    ) -> None:
        """Send a message to ``dest``.

        The sender's software overhead is charged on this node's CPU; the
        message enters the network when that CPU item completes (i.e. sends
        issued from a handler serialize behind the handler itself, as on a
        real single-CPU node).

        ``reliable=True`` routes the message through the ack/retransmit
        envelope when a fault injector is attached; on a fault-free machine
        it is exactly a plain send, so protocols can request reliability
        unconditionally.
        """
        if reliable and self.faults is not None:
            self.faults.transport.send(
                self, dest, kind, payload,
                HEADER_BYTES if size is None else size, tasks_carried)
            return
        msg = Message(self.rank, dest, kind, payload,
                      HEADER_BYTES if size is None else size)
        self.exec_cpu(
            self.machine.latency.endpoint_cpu(msg.size),
            "overhead",
            self.machine.network.transmit,
            msg,
            tasks_carried,
        )

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def exec_cpu(
        self,
        duration: float,
        category: str,
        fn: Optional[Callable[..., None]] = None,
        *args: Any,
    ) -> None:
        """Queue a CPU burst of ``duration`` seconds; run ``fn(*args)`` when
        done.

        Passing the callback's arguments positionally (instead of baking
        them into a closure) keeps the hot path allocation-free: one tuple
        on the CPU queue, no lambda cell objects per message or task.
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        if category not in self.cpu_time:
            raise ValueError(f"unknown CPU category {category!r}")
        if self.crashed or self.fenced or self.departed:
            return
        self._cpu_queue.append((duration, category, fn, args))
        if not self._cpu_busy:
            self._start_next()

    def after(self, delay: float, fn: Callable[..., None], *args: Any) -> "EventHandle":
        """Schedule ``fn(*args)`` on the sim clock, bound to this node.

        Returns a cancellable :class:`~repro.machine.event.EventHandle`.
        Unlike a raw ``sim.schedule``, the callback is suppressed if the
        node has crashed by the time the timer fires — exactly what a
        protocol timer (retransmit, timeout regeneration) needs.  Costs no
        CPU time; charge any real work from inside ``fn``.
        """
        return self.sim.schedule(delay, self._fire_timer, fn, args)

    def _fire_timer(self, fn: Callable[..., None], args: tuple) -> None:
        if not self.crashed and not self.fenced and not self.departed:
            fn(*args)

    def _start_next(self) -> None:
        if self.stalled or self.crashed or self.fenced or self.departed:
            return
        duration, category, fn, args = self._cpu_queue.popleft()
        self._cpu_busy = True
        self.sim.schedule(duration, self._finish, self._cpu_epoch,
                          duration, category, fn, args)

    def _finish(
        self,
        epoch: int,
        duration: float,
        category: str,
        fn: Optional[Callable[..., None]],
        args: tuple,
    ) -> None:
        if self.crashed or epoch != self._cpu_epoch:
            # fail-stop or fence mid-burst: the work never completed,
            # charge nothing (a stale burst must not fire after a revive)
            return
        self.cpu_time[category] += duration
        self.last_active = self.sim.now
        self._cpu_busy = False
        tr = self.tracer
        if tr is not None:
            # One busy segment per CPU item; the gaps between ``cpu``
            # spans on a node's track are its idle time (Ti).
            tr.complete(self.rank, "cpu", category,
                        self.sim.now - duration, duration)
        if fn is not None:
            fn(*args)
        # fn may have queued more work (re-entrancy safe: _cpu_busy is False
        # so exec_cpu inside fn starts immediately and sets it True again).
        if not self._cpu_busy and self._cpu_queue:
            self._start_next()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Node(rank={self.rank})"
