"""Ack/retransmit envelope for protocol messages.

``Node.send(reliable=True)`` lands here when a fault injector is
attached.  The envelope provides at-most-once *delivery to the handler*
and at-least-once *transmission*:

* the sender keeps an entry per message, retransmitting on a sim-time
  timer (``node.after``) with bounded exponential backoff until acked;
* the receiver deduplicates by ``Message.msg_id`` (globally unique per
  process) and acks at *arrival classification* — before the handler's
  CPU item runs — so the ack round trip is a pure wire round trip and a
  busy receiver never triggers spurious retransmission.  Envelope
  control traffic (acks, ack processing) is free of CPU charge; the data
  message itself pays full send/receive freight as usual;
* the early ack transfers responsibility to the receiver: every
  classified-but-not-yet-handled entry sits in the receiver-side
  ``pending`` table until its handler actually runs (``delivered``).  At
  crash detection the envelope surfaces exactly the entries whose
  handler will never run — unclassified sends toward the dead node, plus
  its pending classified arrivals — to the driver for re-scheduling,
  and poisons their ids so copies still on the wire are swallowed.  An
  entry from a crashed *sender* whose handler is queued at a live
  receiver is left to run — rescuing it too would execute it twice.

Determinism: entries live in insertion-ordered dicts, timers on the
global event heap; no wall clock, no unordered iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.machine.message import HEADER_BYTES, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.machine.node import Node

__all__ = ["ReliableTransport", "ACK_KIND"]

#: Message kind used for envelope acknowledgements (best-effort sends).
ACK_KIND = "fault.ack"


class _Entry:
    """Sender-side bookkeeping for one reliable message."""

    __slots__ = ("msg", "tasks_carried", "node", "attempts", "timer",
                 "delivered", "acked")

    def __init__(self, msg: Message, tasks_carried: int, node: "Node") -> None:
        self.msg = msg
        self.tasks_carried = tasks_carried
        self.node = node
        self.attempts = 0
        self.timer = None
        self.delivered = False
        self.acked = False


class ReliableTransport:
    """All reliable-channel state for one machine (one per injector)."""

    def __init__(self, machine: "Machine", rto: Optional[float],
                 max_backoff_doublings: int) -> None:
        self.machine = machine
        #: unacked in-flight entries, by msg_id (insertion-ordered).
        self.entries: dict[int, _Entry] = {}
        #: receiver side: classified (acked) but handler not yet run.
        self.pending: dict[int, _Entry] = {}
        #: msg_ids already handled (or poisoned by crash rescue) at receivers.
        self.seen: set[int] = set()
        #: detected-dead ranks: sends to these surface immediately.
        self.dead: set[int] = set()
        self.rto0 = rto if rto is not None else self._derive_rto(machine)
        self.max_backoff_doublings = max_backoff_doublings
        self.retransmits = 0
        self.acks = 0
        #: largest attempt count any single entry ever reached — the
        #: bounded-retransmit invariant the chaos checker asserts.
        self.max_attempts = 0
        for node in machine.nodes:
            node.on(ACK_KIND, self._on_ack)
        #: callback(msg, tasks_carried) for sends addressed to a known-dead
        #: node after detection; set by the driver.
        self.on_undeliverable: Optional[Callable[[Message, int], None]] = None

    @staticmethod
    def _derive_rto(machine: "Machine") -> float:
        """A round trip across the machine plus slack: generous enough
        that a healthy exchange never times out, tight enough that sweeps
        over lossy links converge quickly."""
        lat = machine.latency
        d = max(1, machine.topology.diameter())
        one_way = lat.software_overhead + d * lat.per_hop + 64 * lat.per_byte
        return 4.0 * (2.0 * one_way + 2.0 * lat.software_overhead)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, node: "Node", dest: int, kind: str, payload: Any,
             size: int, tasks_carried: int) -> None:
        msg = Message(node.rank, dest, kind, payload, size)
        if dest in self.dead:
            # Known-dead destination: never hits the wire.  Surface to the
            # driver on a fresh event so rescue runs outside the caller.
            self.seen.add(msg.msg_id)
            self.machine.sim.schedule(0.0, self._surface, msg, tasks_carried)
            return
        entry = _Entry(msg, tasks_carried, node)
        self.entries[msg.msg_id] = entry
        node.exec_cpu(self.machine.latency.endpoint_cpu(msg.size), "overhead",
                      self._attempt, entry)

    def _surface(self, msg: Message, tasks_carried: int) -> None:
        if self.on_undeliverable is not None:
            self.on_undeliverable(msg, tasks_carried)

    def _attempt(self, entry: _Entry) -> None:
        if entry.acked or entry.node.crashed:
            return
        if entry.msg.msg_id not in self.entries:
            return
        self.machine.network.transmit(entry.msg, entry.tasks_carried)
        backoff = self.rto0 * (1 << min(entry.attempts, self.max_backoff_doublings))
        entry.timer = entry.node.after(backoff, self._on_timeout, entry)

    def _on_timeout(self, entry: _Entry) -> None:
        if entry.acked or entry.msg.msg_id not in self.entries:
            return
        if entry.msg.dest in self.dead:
            # detection beat the timeout; crash rescue owns this entry now
            return
        entry.attempts += 1
        self.retransmits += 1
        if entry.attempts > self.max_attempts:
            self.max_attempts = entry.attempts
        entry.node.exec_cpu(
            self.machine.latency.endpoint_cpu(entry.msg.size), "overhead",
            self._attempt, entry)

    def _on_ack(self, msg: Message) -> None:
        entry = self.entries.pop(msg.payload, None)
        if entry is not None:
            entry.acked = True
            self.acks += 1
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None

    # ------------------------------------------------------------------
    # receiver side (driven by FaultInjector.intercept_dispatch)
    # ------------------------------------------------------------------
    def _ack(self, receiver: int, src: int, mid: int) -> None:
        """Emit an ack directly onto the wire (no CPU charge; it still
        crosses the faulty network, so lossy plans can drop it)."""
        self.machine.network.transmit(
            Message(receiver, src, ACK_KIND, mid, HEADER_BYTES))

    def classify_arrival(self, node: "Node", msg: Message):
        """Classify an arriving message.

        Returns the entry to deliver, ``None`` for a plain (non-reliable)
        message, or ``False`` for a duplicate to swallow.  First arrival
        of a reliable message is acked here — responsibility shifts to
        this receiver, tracked in ``pending`` until the handler runs.
        """
        mid = msg.msg_id
        entry = self.entries.get(mid)
        if mid in self.seen:
            if entry is not None:
                # duplicate of an unacked message: the ack was lost, re-ack
                self._ack(node.rank, msg.src, mid)
            return False
        if entry is None:
            return None
        self.seen.add(mid)
        self.pending[mid] = entry
        self._ack(node.rank, msg.src, mid)
        return entry

    def deliver(self, entry: _Entry, handler: Callable[[Message], None],
                msg: Message) -> None:
        """Receiver CPU item: mark ground-truth delivery, run the handler."""
        entry.delivered = True
        self.pending.pop(msg.msg_id, None)
        handler(msg)

    # ------------------------------------------------------------------
    # crash integration
    # ------------------------------------------------------------------
    def revive(self, rank: int) -> None:
        """A falsely-declared-dead node rejoined: accept sends to it again.

        Entries surfaced at its (false) death stay rescued and their ids
        stay poisoned — only *new* traffic flows; nothing is replayed.
        """
        self.dead.discard(rank)

    def handle_crash(self, rank: int) -> list[tuple[Message, int]]:
        """Account for a detected fail-stop of ``rank``.

        Cancels retransmission toward/from the dead node and returns the
        undelivered ``(msg, tasks_carried)`` payloads the driver must
        rescue.  Their msg_ids are poisoned so copies still on the wire
        are swallowed on arrival.  A message from the dead *sender* whose
        handler is already classified at a live receiver is left to run
        there (rescuing it too would execute it twice).
        """
        self.dead.add(rank)
        undelivered: dict[int, tuple[Message, int]] = {}
        for mid in [m for m, e in self.entries.items()
                    if e.msg.dest == rank or e.msg.src == rank]:
            entry = self.entries.pop(mid)
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
            if entry.delivered:
                continue
            if entry.msg.src == rank and mid in self.pending:
                # classified at a live receiver: its handler will run
                continue
            self.seen.add(mid)
            self.pending.pop(mid, None)
            undelivered[mid] = (entry.msg, entry.tasks_carried)
        # classified arrivals queued at the dead receiver: acked, but the
        # crash wiped its CPU queue before the handler could run
        for mid in [m for m, e in self.pending.items() if e.msg.dest == rank]:
            entry = self.pending.pop(mid)
            if not entry.delivered and mid not in undelivered:
                self.seen.add(mid)
                undelivered[mid] = (entry.msg, entry.tasks_carried)
        return list(undelivered.values())
