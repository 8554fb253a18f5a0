"""Deterministic fault injection for the simulated machine.

``Machine.attach_faults(plan)`` installs a :class:`FaultInjector`: it
wraps the network's ``transmit`` with probabilistic wire faults, link
outages, and scheduled mesh partitions, schedules stall windows and
fail-stop crashes as sim events, and owns the
:class:`~repro.faults.transport.ReliableTransport` that
``Node.send(reliable=True)`` routes through.  With
``plan.detector="heartbeat"`` it additionally runs the in-protocol
:class:`~repro.faults.detector.HeartbeatDetector`, whose (possibly
false) death declarations funnel through :meth:`declare_dead` /
:meth:`revive` here.

All randomness comes from one ``random.Random(plan.seed)`` consumed in
event order, so identical (plan, machine) seeds replay bit-identically —
serial, parallel, or across processes.  A null plan installs nothing;
the fault-free machine never even sees these code paths.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.machine.message import Message

from .plan import FaultPlan
from .transport import ACK_KIND, ReliableTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.machine.node import Node

__all__ = ["FaultInjector", "FaultyNetwork"]


class _EnvelopeDelivery:
    """Receiver CPU callback for one classified reliable message.

    A named, slotted callable (rather than a closure) so that the node
    CPU queue and event heap stay picklable — a requirement of
    :mod:`repro.snapshot`'s checkpoint/restore.
    """

    __slots__ = ("transport", "entry", "handler")

    def __init__(self, transport, entry, handler) -> None:
        self.transport = transport
        self.entry = entry
        self.handler = handler

    def __call__(self, msg: Message) -> None:
        self.transport.deliver(self.entry, self.handler, msg)


class FaultyNetwork:
    """Transmit-side wrapper installed over the machine's real network."""

    def __init__(self, inner, injector: "FaultInjector") -> None:
        self.inner = inner
        self.injector = injector
        self.sim = inner.sim
        self.topology = inner.topology
        self.latency = inner.latency

    @property
    def stats(self):
        return self.inner.stats

    @property
    def tracer(self):
        return self.inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.inner.tracer = value

    def transmit(self, msg: Message, tasks_carried: int = 0) -> None:
        if msg.src == msg.dest:  # loopback never touches a wire
            self.inner.transmit(msg, tasks_carried)
            return
        inj = self.injector
        action, extra = inj.wire_verdict(msg)
        if action is None:
            self.inner.transmit(msg, tasks_carried)
            return
        if action == "drop":
            if extra == "outage":
                key = "outage_drops"
            elif extra == "partition":
                key = "partition_drops"
            else:
                key = "drops"
            inj.count(key, msg.src)
            inj.note(msg.src, f"net-{key[:-1]}", msg)
            return
        if action == "dup":
            inj.count("duplicates", msg.src)
            inj.note(msg.src, "net-duplicate", msg)
            self.inner.transmit(msg, tasks_carried)
            self.inner.transmit(msg, tasks_carried)
            return
        # "delay" (also used for reorder: enough jitter to overtake peers)
        inj.count("delays", msg.src)
        inj.note(msg.src, "net-delay", msg)
        self.sim.schedule(extra, self.inner.transmit, msg, tasks_carried)


class FaultInjector:
    """Owns all fault state for one machine.  Built by ``attach_faults``."""

    def __init__(self, machine: "Machine", plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.transport = ReliableTransport(
            machine, plan.rto, plan.max_backoff_doublings)
        #: ranks currently declared dead by the failure detector (a false
        #: positive leaves this set again when the node refutes).
        self.detected_dead: set[int] = set()
        self._crash_callbacks: list[Callable[[int], None]] = []
        self._membership_callbacks: list[Callable[[str], None]] = []
        self._added_callbacks: list[Callable[[int], None]] = []
        self._departing_callbacks: list[Callable[[int], int]] = []
        self._undelivered: dict[int, list[tuple[Message, int]]] = {}
        self.counts: dict[str, int] = {
            "drops": 0, "outage_drops": 0, "duplicates": 0, "delays": 0,
            "crashes": 0, "stalls": 0, "blackholed": 0, "dups_suppressed": 0,
        }
        #: ranks that were falsely declared dead and later rejoined.
        self.rejoined: list[int] = []
        #: rich observability: new-in-PR-5 counter/instant emission, only
        #: for plans that use the new fault surface (heartbeat detection
        #: or partitions) — plans that existed before stay bit-identical.
        self.obs_rich = (plan.detector != "oracle" or bool(plan.partitions)
                         or plan.has_membership())
        self._kinds = frozenset(plan.kinds) if plan.kinds else None
        self._links = frozenset(plan.links) if plan.links else None
        lat = machine.latency
        diameter = max(1, machine.topology.diameter())
        self.reorder_window = (
            plan.reorder_window if plan.reorder_window is not None
            else 4.0 * (lat.software_overhead + diameter * lat.per_hop))
        machine.network = FaultyNetwork(machine.network, self)
        sim = machine.sim
        for rank, t in plan.crashes:
            machine.topology.check_rank(rank)
            sim.schedule_at(t, self._crash, rank)
        for rank, start, duration in plan.stalls:
            machine.topology.check_rank(rank)
            sim.schedule_at(start, self._stall_begin, rank)
            sim.schedule_at(start + duration, self._stall_end, rank)
        # -- scheduled mesh partitions ---------------------------------
        #: active cut index -> its component groups (insertion-ordered).
        self._active_cuts: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: per-rank component label vector while any cut is active.
        self._comp_label: Optional[list[tuple[int, ...]]] = None
        for idx, (start, duration, components) in enumerate(plan.partitions):
            for group in components:
                for r in group:
                    machine.topology.check_rank(r)
            sim.schedule_at(start, self._partition_begin, idx)
            sim.schedule_at(start + duration, self._partition_end, idx)
        # -- elastic membership ----------------------------------------
        #: MembershipManager when the plan scales the member set at
        #: runtime; None keeps every fixed-membership plan on the exact
        #: pre-membership code paths (bit-identity).
        self.membership = None
        if plan.has_membership():
            from repro.membership import MembershipManager

            self.membership = MembershipManager(self)
        # -- failure detector ------------------------------------------
        self.detector = None
        if plan.detector == "heartbeat":
            from .detector import HeartbeatDetector

            self.detector = HeartbeatDetector(self)
            self.detector.start()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def note(self, node: int, name: str, msg: Optional[Message] = None,
             args: Optional[dict] = None) -> None:
        tr = self.machine.tracer
        if tr is None:
            return
        if msg is not None:
            args = {"kind": msg.kind, "src": msg.src, "dest": msg.dest,
                    **(args or {})}
        tr.instant(node, "fault", name, self.machine.sim.now, args)

    def count(self, name: str, node: int = 0) -> None:
        """Bump ``counts[name]`` (creating it lazily) and — for obs-rich
        plans — emit the running value as a tracer counter record, so
        the fault timeline shows up alongside the phase spans."""
        c = self.counts
        value = c.get(name, 0) + 1
        c[name] = value
        if self.obs_rich:
            tr = self.machine.tracer
            if tr is not None:
                tr.counter(node, "fault", name, self.machine.sim.now, value)

    def stats_summary(self) -> dict:
        """Picklable fault/recovery counters for ``RunMetrics.extra``."""
        out = {
            **self.counts,
            "retransmits": self.transport.retransmits,
            "acks": self.transport.acks,
            "detected_dead": sorted(self.detected_dead),
        }
        if self.obs_rich:
            out["max_attempts"] = self.transport.max_attempts
            out["rejoined"] = list(self.rejoined)
        if self.membership is not None:
            out["membership"] = self.membership.summary()
        return out

    # ------------------------------------------------------------------
    # wire faults
    # ------------------------------------------------------------------
    def wire_verdict(self, msg: Message):
        """Decide the fate of one transmission.

        Draw order is fixed and rate-gated (a zero rate consumes no
        randomness), which is what keeps plans with different knobs from
        perturbing each other's streams.  Partition and outage checks
        consume no randomness at all.
        """
        lab = self._comp_label
        if lab is not None and lab[msg.src] != lab[msg.dest]:
            return "drop", "partition"
        plan = self.plan
        now = self.machine.sim.now
        for src, dest, start, duration in plan.outages:
            if (src == msg.src and dest == msg.dest
                    and start <= now < start + duration):
                return "drop", "outage"
        if self._kinds is not None and msg.kind not in self._kinds:
            return None, None
        if self._links is not None and (msg.src, msg.dest) not in self._links:
            return None, None
        rng = self.rng
        if plan.drop_rate and rng.random() < plan.drop_rate:
            return "drop", "random"
        if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
            return "dup", None
        if plan.delay_rate and rng.random() < plan.delay_rate:
            return "delay", rng.uniform(0.0, plan.delay_max)
        if plan.reorder_rate and rng.random() < plan.reorder_rate:
            return "delay", rng.uniform(0.0, self.reorder_window)
        return None, None

    # ------------------------------------------------------------------
    # dispatch interception (receiver side)
    # ------------------------------------------------------------------
    def intercept_dispatch(self, node: "Node", msg: Message, handler):
        """Veto or wrap an arriving message's handler (see Node.dispatch)."""
        if node.crashed or node.fenced:
            self.count("blackholed", node.rank)
            return None
        if msg.kind == ACK_KIND:
            # envelope control traffic: processed immediately, no CPU
            # charge — an ack stuck behind a busy CPU would race its own
            # retransmit timer
            self.transport._on_ack(msg)
            return None
        verdict = self.transport.classify_arrival(node, msg)
        if verdict is None:
            return handler
        if verdict is False:
            self.count("dups_suppressed", node.rank)
            return None
        return _EnvelopeDelivery(self.transport, verdict, handler)

    # ------------------------------------------------------------------
    # mesh partitions
    # ------------------------------------------------------------------
    def reachable(self, a: int, b: int) -> bool:
        """False while an active cut separates ranks ``a`` and ``b``."""
        lab = self._comp_label
        return lab is None or lab[a] == lab[b]

    def components(self) -> list[list[int]]:
        """Current reachability components as ascending rank lists,
        ordered by their smallest member (one full-machine component
        when no cut is active)."""
        n = self.machine.num_nodes
        lab = self._comp_label
        if lab is None:
            return [list(range(n))]
        groups: dict[tuple[int, ...], list[int]] = {}
        for r in range(n):
            groups.setdefault(lab[r], []).append(r)
        return sorted(groups.values())

    def on_membership_changed(self, callback: Callable[[str], None]) -> None:
        """Register a callback fired with ``"partition"`` / ``"heal"``
        whenever the reachability components change; the callee queries
        :meth:`components` for the new shape."""
        self._membership_callbacks.append(callback)

    def _recompute_components(self) -> None:
        if not self._active_cuts:
            self._comp_label = None
            return
        n = self.machine.num_nodes
        labels: list[tuple[int, ...]] = []
        for r in range(n):
            lab = []
            for components in self._active_cuts.values():
                g_of = -1
                for gi, group in enumerate(components):
                    if r in group:
                        g_of = gi
                        break
                lab.append(g_of)
            labels.append(tuple(lab))
        self._comp_label = labels

    def _partition_begin(self, idx: int) -> None:
        _s, _d, components = self.plan.partitions[idx]
        self._active_cuts[idx] = components
        self._recompute_components()
        self.count("partitions")
        self.note(0, "partition-begin",
                  args={"cut": idx,
                        "components": [list(g) for g in components]})
        for cb in self._membership_callbacks:
            cb("partition")

    def _partition_end(self, idx: int) -> None:
        self._active_cuts.pop(idx, None)
        self._recompute_components()
        self.note(0, "partition-heal", args={"cut": idx})
        for cb in self._membership_callbacks:
            cb("heal")

    # ------------------------------------------------------------------
    # crashes, stalls, and (possibly false) death declarations
    # ------------------------------------------------------------------
    def on_crash_detected(self, callback: Callable[[int], None]) -> None:
        """Register a failure-detector callback (fires per declared-dead
        rank: after ``detect_delay`` under the oracle, at gossip-quorum
        time under the heartbeat detector)."""
        self._crash_callbacks.append(callback)

    # -- elastic membership -------------------------------------------
    def is_member(self, rank: int) -> bool:
        """True when ``rank`` is in the current membership epoch (always
        true on fixed-membership plans)."""
        return self.membership is None or self.membership.is_member(rank)

    def on_node_added(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a node enters the usable set:
        admitted to the member set (at the join epoch commit, before any
        task can be scheduled onto it), or rejoining after it refuted a
        false death declaration."""
        self._added_callbacks.append(callback)

    def on_node_departing(self, callback: Callable[[int], int]) -> None:
        """Register a drain callback fired while a leaving node is still
        semantically reachable: the callee hands every task it holds for
        the rank off to survivors and returns the handoff count.  A
        departing node is *not* a death — losing work here is an audit
        violation."""
        self._departing_callbacks.append(callback)

    def take_undeliverable(self, rank: int) -> list[tuple[Message, int]]:
        """Undelivered reliable payloads surfaced by ``rank``'s crash.
        One-shot: the caller (the driver) assumes rescue ownership."""
        return self._undelivered.pop(rank, [])

    def quiesce(self) -> None:
        """The workload finished: stop the failure detector's periodic
        traffic (and any membership retry timers) so the event heap can
        drain and the run terminate."""
        if self.detector is not None:
            self.detector.stop()
        if self.membership is not None:
            self.membership.stop()

    def _crash(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        if node.crashed:
            return
        node.crashed = True
        node._cpu_queue.clear()
        node._cpu_busy = False
        self.count("crashes", rank)
        self.note(rank, "crash")
        if rank in self.detected_dead:
            # the node was already (falsely) declared dead and fenced;
            # the death is real now — re-notify so work held for its
            # revival is written off
            node.fenced = False
            self.machine.sim.schedule(self.plan.detect_delay,
                                      self._renotify, rank)
        elif self.detector is None:
            self.machine.sim.schedule(self.plan.detect_delay,
                                      self._detect, rank)
        # else: the heartbeat monitors notice the silence on their own

    def _detect(self, rank: int) -> None:
        self.detected_dead.add(rank)
        self._undelivered[rank] = self.transport.handle_crash(rank)
        self.note(rank, "crash-detected")
        for callback in self._crash_callbacks:
            callback(rank)

    def _renotify(self, rank: int) -> None:
        self._undelivered[rank] = self.transport.handle_crash(rank)
        self.note(rank, "crash-detected")
        for callback in self._crash_callbacks:
            callback(rank)

    def declare_dead(self, rank: int) -> None:
        """Global death declaration (the heartbeat detector's verdict).

        For a really-crashed node this is exactly the oracle's
        :meth:`_detect`.  For a live node (a false positive) the node is
        *fenced* first — CPU queue wiped, execution/receipt blocked, like
        a crash — so the rescue that follows cannot race a local
        execution; a lease timer (or the end of its stall window) later
        revives it through :meth:`_refute`.
        """
        if rank in self.detected_dead:
            return
        if self.membership is not None and not self.membership.is_member(rank):
            # a departed (or never-admitted) node is dark *by choice*:
            # stale gossip about an ex-member must not fence anyone or
            # trigger a rescue — there is nothing to rescue
            return
        node = self.machine.nodes[rank]
        false_positive = not node.crashed
        if false_positive:
            node.fenced = True
            node._cpu_queue.clear()
            node._cpu_busy = False
            node._cpu_epoch += 1
            self.count("false_deaths", rank)
            self.note(rank, "fenced")
        self._detect(rank)
        if self.detector is not None:
            self.detector.on_declared_dead(rank)
            if false_positive and not node.stalled:
                self.machine.sim.schedule(self.detector.refute_delay,
                                          self._lease_expire, rank)

    def _lease_expire(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        if node.crashed or not node.fenced or node.stalled:
            return  # really died meanwhile, already revived, or stalled
        self._refute(rank)

    def _refute(self, rank: int) -> None:
        """Revive a fenced-but-alive node: it refutes its death with a
        higher incarnation and rejoins the computation."""
        node = self.machine.nodes[rank]
        node.fenced = False
        node._cpu_epoch += 1
        self.detected_dead.discard(rank)
        self.transport.revive(rank)
        self.rejoined.append(rank)
        self.count("rejoins", rank)
        self.note(rank, "rejoin")
        if self.detector is not None:
            self.detector.on_refuted(rank)
        for callback in self._added_callbacks:
            callback(rank)

    def _stall_begin(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        if node.crashed:
            return
        node.stalled = True
        self.count("stalls", rank)
        self.note(rank, "stall-begin")

    def _stall_end(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        node.stalled = False
        self.note(rank, "stall-end")
        if node.crashed:
            return
        if node.fenced:
            # the stall got this node falsely declared dead; it is awake
            # now, so it refutes immediately
            self._refute(rank)
            return
        if not node._cpu_busy and node._cpu_queue:
            node._start_next()
