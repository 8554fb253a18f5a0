"""In-protocol failure detection: heartbeats, suspicion, incarnations.

``FaultPlan(detector="heartbeat")`` replaces the oracle failure detector
(global, infallible knowledge ``detect_delay`` after each crash) with a
deterministic SWIM-flavored protocol running over the real mesh links:

* every node heartbeats its topology neighbors (its *monitors*) on a
  fixed period, through the normal CPU/send path — so a stalled or
  heavily loaded node naturally stops heartbeating, which is exactly how
  false positives arise;
* a monitor that misses a peer's heartbeat deadline moves the peer to
  **SUSPECT** and gossips the suspicion to the peer's other monitors and
  to the peer itself (the self-defense channel: a live suspect bumps its
  incarnation and broadcasts ``alive``);
* a monitor that is itself suspicious *and* has corroboration from a
  quorum of distinct suspecting monitors promotes the peer to **DEAD**
  and invokes :meth:`FaultInjector.declare_dead` — the same global
  transition the oracle takes, so the driver/strategy recovery machinery
  is shared;
* a **false** death declaration fences the live node (lease-style: it
  stops executing and receiving, like a crash, so rescued tasks cannot
  double-execute).  When its lease expires — or its stall window ends —
  it refutes with a higher incarnation, broadcasts ``alive``, and
  rejoins through :meth:`FaultInjector.revive`.

Two deliberate modeling shortcuts, both deterministic: a cross-partition
peer is marked **PARTITIONED** rather than suspected (the injector's
partition schedule is used as ground truth — declaring half the machine
dead at every cut would make partition-tolerance untestable), and a DEAD
declaration updates all monitors' views directly instead of flooding a
``dead`` broadcast (the global ``declare_dead`` transition already is
common knowledge in this model).

Everything here is bound-method callbacks and slotted state objects —
no closures — so the whole detector checkpoint/restores bit-identically
inside the machine's snapshot pickle (see :mod:`repro.snapshot`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machine.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .inject import FaultInjector

__all__ = ["HeartbeatDetector", "HB_KIND", "SUSPECT_KIND", "ALIVE_KIND"]

HB_KIND = "fault.hb"
SUSPECT_KIND = "fault.suspect"
ALIVE_KIND = "fault.alive"

#: view states a monitor holds about a peer
ALIVE, SUSPECT, DEAD, PARTITIONED = "alive", "suspect", "dead", "partitioned"


class _PeerView:
    """One monitor's knowledge about one neighbor."""

    __slots__ = ("last", "status", "inc", "suspectors")

    def __init__(self) -> None:
        self.last = 0.0  # sim time of the last accepted heartbeat
        self.status = ALIVE
        self.inc = 0  # incarnation this view last accepted / suspected
        self.suspectors: dict[int, bool] = {}  # ranks known to suspect

    def clear_to_alive(self, now: float, inc: int) -> None:
        self.status = ALIVE
        self.last = now
        self.inc = inc
        self.suspectors.clear()


class HeartbeatDetector:
    """Deterministic heartbeat failure detection for one machine."""

    def __init__(self, injector: "FaultInjector") -> None:
        self.injector = injector
        machine = injector.machine
        self.machine = machine
        plan = injector.plan
        lat = machine.latency
        one_way = (lat.software_overhead
                   + max(1, machine.topology.diameter()) * lat.per_hop)
        self.period = (plan.heartbeat_period
                       if plan.heartbeat_period is not None else 8.0 * one_way)
        self.timeout = (plan.heartbeat_timeout
                        if plan.heartbeat_timeout is not None
                        else 3.0 * self.period)
        self.refute_delay = (plan.refute_delay
                             if plan.refute_delay is not None
                             else 2.0 * self.timeout)
        n = machine.num_nodes
        topo = machine.topology
        #: per-rank self-incarnation (bumped on every refutation)
        self.incarnation = [0] * n
        #: monitor -> {peer: view} over topology neighbors.  Views exist
        #: only between *current members*: standby nodes are silent by
        #: design and must not accumulate suspicion; joins/leaves edit
        #: these dicts through on_member_joined / on_member_left.
        is_member = injector.is_member
        self.views: list[dict[int, _PeerView]] = [
            {p: _PeerView() for p in topo.neighbors(r) if is_member(p)}
            if is_member(r) else {}
            for r in range(n)
        ]
        for node in machine.nodes:
            node.on(HB_KIND, self._on_heartbeat)
            node.on(SUSPECT_KIND, self._on_suspect)
            node.on(ALIVE_KIND, self._on_alive)
        #: set by :meth:`stop` when the workload finishes — the periodic
        #: beats stop re-arming, letting the event heap drain.
        self.stopped = False

    def start(self) -> None:
        """Arm the first heartbeat of every member (called once at
        attach; nodes admitted later are armed by on_member_joined)."""
        for node in self.machine.nodes:
            if self.injector.is_member(node.rank):
                node.after(self.period, self._beat, node.rank)

    def stop(self) -> None:
        """Stop monitoring (workload done): beats no longer re-arm."""
        self.stopped = True

    # ------------------------------------------------------------------
    # the periodic beat: send heartbeats, check deadlines
    # ------------------------------------------------------------------
    def _beat(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        if (self.stopped or node.crashed or node.fenced
                or not self.injector.is_member(rank)):
            return  # chain dies; refute/rejoin (or nothing) re-arms it
        inc = self.incarnation[rank]
        for peer in self.machine.topology.neighbors(rank):
            node.send(peer, HB_KIND, inc)
        self._check(rank)
        node.after(self.period, self._beat, rank)

    def _check(self, rank: int) -> None:
        now = self.machine.sim.now
        inj = self.injector
        for peer, view in self.views[rank].items():
            if view.status == DEAD:
                continue
            if not inj.reachable(rank, peer):
                if view.status != PARTITIONED:
                    view.status = PARTITIONED
                    view.suspectors.clear()
                    inj.note(rank, "hb-partitioned", args={"peer": peer})
                view.last = now  # freeze the deadline clock across the cut
                continue
            if view.status == PARTITIONED:
                # healed: grace-restart the deadline before re-judging
                view.clear_to_alive(now, view.inc)
                continue
            if now - view.last > self.timeout:
                if view.status == ALIVE:
                    view.status = SUSPECT
                    view.suspectors[rank] = True
                    inj.note(rank, "hb-suspect",
                             args={"peer": peer, "inc": view.inc})
                if view.status == SUSPECT:
                    # (re-)gossip each period while suspicion stands, so a
                    # dropped gossip message cannot wedge corroboration
                    self._gossip_suspicion(rank, peer, view.inc)
                    self._maybe_declare(rank, peer, view)

    def _gossip_suspicion(self, rank: int, peer: int, inc: int) -> None:
        node = self.machine.nodes[rank]
        is_member = self.injector.is_member
        for other in self.machine.topology.neighbors(peer):
            if other != rank and is_member(other):
                node.send(other, SUSPECT_KIND, (peer, inc))
        # the self-defense channel: tell the suspect itself
        node.send(peer, SUSPECT_KIND, (peer, inc))

    def _quorum(self, peer: int) -> int:
        monitors = [m for m in self.machine.topology.neighbors(peer)
                    if m not in self.injector.detected_dead
                    and self.injector.is_member(m)]
        return min(self.injector.plan.corroboration, max(1, len(monitors)))

    def _maybe_declare(self, rank: int, peer: int, view: _PeerView) -> None:
        if len(view.suspectors) >= self._quorum(peer):
            self.injector.note(rank, "hb-dead",
                               args={"peer": peer,
                                     "suspectors": sorted(view.suspectors)})
            self.injector.declare_dead(peer)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: Message) -> None:
        view = self.views[msg.dest].get(msg.src)
        if view is None:  # pragma: no cover - heartbeats are neighbor-only
            return
        inc = msg.payload
        if view.status == DEAD:
            if inc > view.inc:  # a revived node beats with a higher inc
                view.clear_to_alive(self.machine.sim.now, inc)
            return
        if view.status in (SUSPECT, PARTITIONED):
            self.injector.note(msg.dest, "hb-alive",
                               args={"peer": msg.src, "inc": inc})
        view.clear_to_alive(self.machine.sim.now, max(view.inc, inc))

    def _on_suspect(self, msg: Message) -> None:
        peer, inc = msg.payload
        rank = msg.dest
        if rank == peer:
            # someone suspects *me* and I am demonstrably alive: refute
            # with a higher incarnation (the SWIM refutation rule)
            if inc >= self.incarnation[rank]:
                self.incarnation[rank] = inc + 1
                self.injector.note(rank, "hb-refute",
                                   args={"inc": self.incarnation[rank]})
                self._broadcast_alive(rank)
            return
        view = self.views[rank].get(peer)
        if view is None or view.status in (DEAD, PARTITIONED):
            return
        # record the corroborating monitor; promotion still requires this
        # monitor's own deadline to have expired (status SUSPECT)
        view.suspectors[msg.src] = True
        if view.status == SUSPECT:
            self._maybe_declare(rank, peer, view)

    def _on_alive(self, msg: Message) -> None:
        peer, inc = msg.payload
        view = self.views[msg.dest].get(peer)
        if view is None:
            return
        if inc > view.inc or view.status == SUSPECT:
            if view.status in (SUSPECT, DEAD):
                self.injector.note(msg.dest, "hb-alive",
                                   args={"peer": peer, "inc": inc})
            view.clear_to_alive(self.machine.sim.now, inc)

    # ------------------------------------------------------------------
    # global transitions (driven by the injector)
    # ------------------------------------------------------------------
    def on_declared_dead(self, rank: int) -> None:
        """Propagate a DEAD declaration into every monitor's view."""
        for views in self.views:
            view = views.get(rank)
            if view is not None and view.status != DEAD:
                view.status = DEAD
                view.suspectors.clear()

    def on_refuted(self, rank: int) -> None:
        """A fenced-but-alive node's lease expired (or its stall ended):
        bump the incarnation, broadcast ``alive``, and re-arm its beat."""
        self.incarnation[rank] += 1
        now = self.machine.sim.now
        for view in self.views[rank].values():
            # it heard nothing while fenced; restart its deadline clocks
            view.clear_to_alive(now, view.inc)
        self.injector.note(rank, "hb-refute",
                           args={"inc": self.incarnation[rank]})
        self._broadcast_alive(rank)
        self.machine.nodes[rank].after(self.period, self._beat, rank)

    def on_member_joined(self, rank: int) -> None:
        """An admitted node enters monitoring: fresh views both ways,
        with deadline clocks starting *now* (its pre-join silence must
        not read as a missed heartbeat), and its beat chain armed."""
        now = self.machine.sim.now
        is_member = self.injector.is_member
        mine = self.views[rank]
        mine.clear()
        for peer in self.machine.topology.neighbors(rank):
            if not is_member(peer):
                continue
            view = _PeerView()
            view.last = now
            mine[peer] = view
            back = _PeerView()
            back.last = now
            self.views[peer][rank] = back
        self.machine.nodes[rank].after(self.period, self._beat, rank)

    def on_member_left(self, rank: int) -> None:
        """Garbage-collect every trace of a departed member.

        A departed node is dark by choice; leaving its views in place
        would turn it into a permanent SUSPECT ghost whose gossip keeps
        getting re-corroborated.  Its own views go, every monitor's view
        *of* it goes, and so does its entry in every suspectors set —
        a departed monitor's old vote must not count toward any quorum.
        """
        self.views[rank].clear()
        for views in self.views:
            views.pop(rank, None)
            for view in views.values():
                view.suspectors.pop(rank, None)

    def _broadcast_alive(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        inc = self.incarnation[rank]
        for peer in self.machine.topology.neighbors(rank):
            node.send(peer, ALIVE_KIND, (rank, inc))
