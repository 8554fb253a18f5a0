"""Deterministic elastic membership over the simulated mesh.

The 1995 paper schedules over a fixed processor set; PR 5 relaxed that
for *failures* (detection, fencing, rejoin).  This module relaxes it on
purpose: nodes **join**, **leave**, and **elect roots** at runtime, on a
seeded :class:`~repro.faults.plan.FaultPlan` schedule, and every strategy
rebalances onto the changed processor set at each *membership epoch*.

Protocol (adapted from the ESP32 mesh Advertise/ClaimChild/RootElected
idiom; all timers run on the sim clock, all signals are real messages on
the mesh, so the protocol's cost lands in ``Th`` like everything else):

* **Join** (scale-up): a standby node broadcasts ``mem.advertise`` to
  its physical neighbors; a member neighbor answers ``mem.claim``; the
  joiner accepts its first sponsor with ``mem.claim_ack``; the sponsor
  forwards ``mem.admit`` to the current root, which commits the epoch.
  The joiner re-advertises on a fixed period until admitted (its member
  neighbors may all be dark for a while).
* **Leave** (scale-down, drain-and-depart): the leaver announces
  ``mem.depart`` to the root, receives ``mem.depart_ack``, and *drains*:
  every queued, in-flight, strategy-pooled, and pinned task is handed
  off to survivors (pinned tasks are re-pinned), then the node goes
  dark.  A departing node is **not** a death: the drain declares zero
  losses, which each epoch's conservation audit records.
* **Election**: incarnation-numbered and quorum-acknowledged.  The
  deterministic candidate for incarnation ``k`` is the ``k``-th usable
  member in sorted order (so scheduled elections actually rotate the
  root).  The candidate sends ``mem.elect`` to every member, collects
  ``mem.elect_ack`` votes, and commits on a majority of usable members.
  A crash of the current root triggers an election automatically.
  "Usable" is :meth:`Machine.usable`, the rule every scheduler uses: a
  draining member neither stands for election nor counts in the quorum
  size (elected, it would take the root with it when its leave commits).

Epoch commits follow PR 5's global-transition shortcut: once the commit
point is reached the new member set is applied as common knowledge (the
``mem.epoch``/``mem.root`` broadcasts that follow are real traffic, but
carry no extra semantics).  Each commit is one synchronous step inside a
single sim event, so the epoch-boundary audit — lost-task delta across
the transition — is exact.

Everything here is bound-method callbacks and plain containers — no
closures, no wall-clock, no RNG — so a mid-transition checkpoint
restores and resumes the handshake bit-identically (snapshot v4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.machine.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector

__all__ = ["MembershipManager", "ADVERTISE_KIND", "CLAIM_KIND",
           "CLAIM_ACK_KIND"]

ADVERTISE_KIND = "mem.advertise"
CLAIM_KIND = "mem.claim"
CLAIM_ACK_KIND = "mem.claim_ack"
ADMIT_KIND = "mem.admit"
DEPART_KIND = "mem.depart"
DEPART_ACK_KIND = "mem.depart_ack"
ELECT_KIND = "mem.elect"
ELECT_ACK_KIND = "mem.elect_ack"
EPOCH_KIND = "mem.epoch"

#: wire size of a membership control message (a few integers)
CTRL_BYTES = 32


class MembershipManager:
    """Runtime member set, root, and epoch log for one machine."""

    def __init__(self, injector: "FaultInjector") -> None:
        self.injector = injector
        machine = injector.machine
        self.machine = machine
        plan = injector.plan
        lat = machine.latency
        one_way = (lat.software_overhead
                   + max(1, machine.topology.diameter()) * lat.per_hop)
        #: advertise / depart / election retry period (deterministic).
        self.retry_period = 12.0 * one_way
        #: monotonically increasing membership epoch (0 = the initial set).
        self.epoch = 0
        #: the admitted member set; crashes do *not* remove membership
        #: (a crashed member is dead, not departed).
        self.members: set[int] = set(range(machine.num_nodes))
        #: current protocol root and its election incarnation.
        self.root = 0
        self.root_incarnation = 0
        #: one dict per epoch transition (kind/rank/time/audit deltas).
        self.log: list[dict] = []
        #: election bookkeeping: votes per incarnation, last acked inc
        #: per rank, highest incarnation ever initiated.
        self._votes: dict[int, set[int]] = {}
        self._acked_inc = [0] * machine.num_nodes
        self._max_inc = 0
        self._election_wanted = False
        #: join bookkeeping: joining rank -> chosen sponsor (or None).
        self._sponsors: dict[int, Optional[int]] = {}
        #: leaves whose rank was root at leave time: retried post-election.
        self._pending_leaves: list[int] = []
        #: set by :meth:`stop` when the workload finishes (retry timers
        #: stop re-arming so the event heap can drain).
        self.stopped = False
        #: sim time :meth:`stop` fired — the commit horizon: an event
        #: still mid-handshake at this instant legitimately never
        #: commits.  None while the run is live.
        self.stopped_at: Optional[float] = None
        for rank in plan.standby:
            machine.topology.check_rank(rank)
            node = machine.nodes[rank]
            node.membership = "standby"
            self.members.discard(rank)
        if not self.members:
            raise ValueError("at least one initial member is required")
        for node in machine.nodes:
            node.on(ADVERTISE_KIND, self._on_advertise)
            node.on(CLAIM_KIND, self._on_claim)
            node.on(CLAIM_ACK_KIND, self._on_claim_ack)
            node.on(ADMIT_KIND, self._on_admit)
            node.on(DEPART_KIND, self._on_depart)
            node.on(DEPART_ACK_KIND, self._on_depart_ack)
            node.on(ELECT_KIND, self._on_elect)
            node.on(ELECT_ACK_KIND, self._on_elect_ack)
            node.on(EPOCH_KIND, self._on_epoch)
        sim = machine.sim
        for rank, t in plan.joins:
            machine.topology.check_rank(rank)
            sim.schedule_at(t, self._start_join, rank)
        for rank, t in plan.leaves:
            machine.topology.check_rank(rank)
            sim.schedule_at(t, self._start_leave, rank)
        for t in plan.elections:
            sim.schedule_at(t, self._start_election)
        injector.on_crash_detected(self._on_crash_detected)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_member(self, rank: int) -> bool:
        return rank in self.members

    def stop(self) -> None:
        """Workload done: membership retry timers stop re-arming."""
        if not self.stopped:
            self.stopped = True
            self.stopped_at = self.machine.sim.now

    def _driver(self):
        return self.machine.snapshot_root("driver")

    def _losses(self) -> int:
        driver = self._driver()
        return len(driver.lost_tasks) if driver is not None else 0

    def _note(self, rank: int, name: str, args: Optional[dict] = None) -> None:
        self.injector.note(rank, name, args=args)

    # ------------------------------------------------------------------
    # epoch commit core
    # ------------------------------------------------------------------
    def _commit(self, kind: str, rank: Optional[int], lost_before: int,
                extra: Optional[dict] = None) -> None:
        """Advance the epoch and record the transition's exact audit.

        Called at the end of a transition's synchronous commit step —
        the lost-task delta across the step is therefore exact: a
        crash cannot interleave inside one sim event.
        """
        self.epoch += 1
        entry = {
            "epoch": self.epoch,
            "kind": kind,
            "rank": rank,
            "t": self.machine.sim.now,
            "root": self.root,
            "incarnation": self.root_incarnation,
            "members": len(self.members),
            "lost_delta": self._losses() - lost_before,
        }
        if extra:
            entry.update(extra)
        self.log.append(entry)
        self.injector.count(f"mem_{kind}s", rank if rank is not None else 0)
        self.injector.count("mem_epochs", rank if rank is not None else 0)
        self._note(rank if rank is not None else self.root,
                   f"mem-{kind}", args=entry)
        self._broadcast_epoch(kind, rank)

    def _broadcast_epoch(self, kind: str, rank: Optional[int]) -> None:
        """Spread the commit over real links (informational: the commit
        itself is applied as common knowledge, like ``declare_dead``)."""
        root = self.machine.nodes[self.root]
        if root.crashed or root.fenced or root.departed:
            return
        payload = (self.epoch, kind, rank, self.root, self.root_incarnation)
        for member in sorted(self.members):
            if member != self.root:
                root.send(member, EPOCH_KIND, payload, size=CTRL_BYTES)

    def _on_epoch(self, msg: Message) -> None:
        """Epoch announcements carry no extra semantics (see above)."""

    def summary(self) -> dict:
        """Picklable membership stats for ``RunMetrics.extra``."""
        return {
            "epoch": self.epoch,
            "root": self.root,
            "root_incarnation": self.root_incarnation,
            "members": sorted(self.members),
            "stopped_at": self.stopped_at,
            "transitions": [dict(e) for e in self.log],
        }

    # ------------------------------------------------------------------
    # join: advertise -> claim -> claim_ack -> admit -> commit
    # ------------------------------------------------------------------
    def _start_join(self, rank: int) -> None:
        if self.stopped or rank in self.members:
            return
        node = self.machine.nodes[rank]
        if node.crashed:
            return  # a crashed standby node cannot power up
        # Power the node: a re-joining departed node was dark, but its
        # CPU was already reset to idle at darken time (see
        # _drain_and_depart), and a standby node's CPU is live — bumping
        # the CPU epoch here would void an in-flight burst and wedge the
        # node with _cpu_busy stuck on.
        node.departed = False
        node.membership = "joining"
        self._sponsors[rank] = None
        self._note(rank, "mem-advertise")
        self._advertise(rank)
        node.after(self.retry_period, self._retry_join, rank)

    def _advertise(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        for peer in self.machine.topology.neighbors(rank):
            node.send(peer, ADVERTISE_KIND, rank, size=CTRL_BYTES)

    def _retry_join(self, rank: int) -> None:
        if self.stopped or rank in self.members:
            return
        node = self.machine.nodes[rank]
        if node.membership != "joining":
            return
        self._sponsors[rank] = None  # the old sponsor may be dark
        self._advertise(rank)
        node.after(self.retry_period, self._retry_join, rank)

    def _on_advertise(self, msg: Message) -> None:
        rank = msg.payload
        sponsor = msg.dest
        if not self.machine.usable(sponsor) or rank in self.members:
            return
        self.machine.nodes[sponsor].send(
            rank, CLAIM_KIND, sponsor, size=CTRL_BYTES)

    def _on_claim(self, msg: Message) -> None:
        rank = msg.dest
        node = self.machine.nodes[rank]
        if node.membership != "joining" or self._sponsors.get(rank) is not None:
            return  # not joining (anymore), or already sponsored
        self._sponsors[rank] = msg.src
        node.send(msg.src, CLAIM_ACK_KIND, rank, size=CTRL_BYTES)

    def _on_claim_ack(self, msg: Message) -> None:
        rank = msg.payload
        sponsor = msg.dest
        if rank in self.members or not self.machine.usable(sponsor):
            return
        if sponsor == self.root:
            self._on_admit(Message(sponsor, sponsor, ADMIT_KIND, rank,
                                   CTRL_BYTES))
        else:
            self.machine.nodes[sponsor].send(
                self.root, ADMIT_KIND, rank, size=CTRL_BYTES)

    def _on_admit(self, msg: Message) -> None:
        rank = msg.payload
        if (msg.dest != self.root or rank in self.members
                or self.machine.nodes[rank].membership != "joining"):
            return  # stale admit (root moved, or already committed)
        self._commit_join(rank)

    def _commit_join(self, rank: int) -> None:
        lost_before = self._losses()
        node = self.machine.nodes[rank]
        node.membership = "member"
        node.departed = False
        self.members.add(rank)
        self._sponsors.pop(rank, None)
        self.injector.transport.revive(rank)
        detector = self.injector.detector
        if detector is not None:
            detector.on_member_joined(rank)
        for cb in self.injector._added_callbacks:
            cb(rank)
        self._commit("join", rank, lost_before)

    # ------------------------------------------------------------------
    # leave: depart -> depart_ack -> drain -> dark -> commit
    # ------------------------------------------------------------------
    def _start_leave(self, rank: int) -> None:
        if self.stopped or rank not in self.members:
            return
        node = self.machine.nodes[rank]
        if node.crashed or node.departed:
            return
        if rank == self.root:
            if len(self.machine.alive_ranks()) <= 1:
                return  # the last usable member cannot leave
            # the root cannot drain through itself: elect a successor
            # first, then retry the leave (see _commit_election)
            if rank not in self._pending_leaves:
                self._pending_leaves.append(rank)
            self._start_election()
            return
        node.membership = "draining"
        self._note(rank, "mem-draining")
        self._send_depart(rank)
        node.after(self.retry_period, self._retry_leave, rank)

    def _send_depart(self, rank: int) -> None:
        self.machine.nodes[rank].send(
            self.root, DEPART_KIND, rank, size=CTRL_BYTES)

    def _retry_leave(self, rank: int) -> None:
        node = self.machine.nodes[rank]
        if self.stopped or rank not in self.members:
            return
        if node.membership != "draining" or node.crashed or node.departed:
            return
        self._send_depart(rank)  # the old root may be gone; retry current
        node.after(self.retry_period, self._retry_leave, rank)

    def _on_depart(self, msg: Message) -> None:
        rank = msg.payload
        if msg.dest != self.root or rank not in self.members:
            return
        if self.machine.nodes[rank].membership != "draining":
            return
        self.machine.nodes[msg.dest].send(
            rank, DEPART_ACK_KIND, rank, size=CTRL_BYTES)

    def _on_depart_ack(self, msg: Message) -> None:
        rank = msg.dest
        node = self.machine.nodes[rank]
        if (rank not in self.members or node.membership != "draining"
                or node.crashed or node.fenced or node.departed):
            return
        self._drain_and_depart(rank)

    def _drain_and_depart(self, rank: int) -> None:
        """The drain: hand everything off, go dark, commit the epoch.

        One synchronous step — task handoff cannot interleave with
        deliveries or crashes, which is what makes the zero-loss audit
        at this epoch boundary exact.
        """
        inj = self.injector
        node = self.machine.nodes[rank]
        lost_before = self._losses()
        # seal the transport first: in-flight reliable payloads to the
        # leaver surface here and are handed off with everything else
        # (their wire copies are poisoned, so no double execution)
        inj._undelivered[rank] = inj.transport.handle_crash(rank)
        handed = 0
        for cb in inj._departing_callbacks:
            handed += cb(rank)
        # dark: by choice, after the handoff — nothing was lost
        node.membership = "left"
        node.departed = True
        node._cpu_queue.clear()
        node._cpu_busy = False
        node._cpu_epoch += 1
        self.members.discard(rank)
        detector = inj.detector
        if detector is not None:
            detector.on_member_left(rank)
        self._commit("leave", rank, lost_before, {"handed_off": handed})

    # ------------------------------------------------------------------
    # election: elect -> elect_ack quorum -> commit
    # ------------------------------------------------------------------
    def _candidate(self, inc: int) -> Optional[int]:
        usable = self.machine.alive_ranks()
        if not usable:
            return None
        return usable[inc % len(usable)]

    def _start_election(self) -> None:
        if self.stopped:
            return
        inc = self._max_inc + 1
        candidate = self._candidate(inc)
        if candidate is None:
            return
        self._max_inc = inc
        self._election_wanted = True
        self._votes[inc] = {candidate}
        self._note(candidate, "mem-elect",
                   args={"incarnation": inc, "candidate": candidate})
        cand_node = self.machine.nodes[candidate]
        others = [r for r in sorted(self.members) if r != candidate]
        if not others:
            self._maybe_commit_election(inc, candidate)
            return
        for member in others:
            cand_node.send(member, ELECT_KIND, (inc, candidate),
                           size=CTRL_BYTES)
        cand_node.after(self.retry_period, self._retry_election, inc)

    def _retry_election(self, inc: int) -> None:
        if self.stopped or not self._election_wanted:
            return
        if self.root_incarnation >= inc:
            return  # this (or a later) election already committed
        self._start_election()  # fresh incarnation; stale acks can't mix

    def _on_elect(self, msg: Message) -> None:
        inc, candidate = msg.payload
        rank = msg.dest
        if inc <= self._acked_inc[rank] or inc <= self.root_incarnation:
            return  # already promised this incarnation (or it is stale)
        self._acked_inc[rank] = inc
        self.machine.nodes[rank].send(
            candidate, ELECT_ACK_KIND, (inc, rank), size=CTRL_BYTES)

    def _on_elect_ack(self, msg: Message) -> None:
        inc, voter = msg.payload
        candidate = msg.dest
        votes = self._votes.get(inc)
        if votes is None or self.root_incarnation >= inc:
            return
        votes.add(voter)
        self._maybe_commit_election(inc, candidate)

    def _maybe_commit_election(self, inc: int, candidate: int) -> None:
        votes = self._votes.get(inc, set())
        quorum = len(self.machine.alive_ranks()) // 2 + 1
        if len(votes) < quorum:
            return
        self._commit_election(inc, candidate)

    def _commit_election(self, inc: int, candidate: int) -> None:
        lost_before = self._losses()
        self._votes.pop(inc, None)
        self._election_wanted = False
        old_root = self.root
        self.root = candidate
        self.root_incarnation = inc
        for cb in self.injector._membership_callbacks:
            cb("election")
        self._commit("election", candidate, lost_before,
                     {"old_root": old_root})
        # a leave that was blocked on being root can proceed now
        pending = [r for r in self._pending_leaves if r != self.root]
        self._pending_leaves = [r for r in self._pending_leaves
                                if r == self.root]
        for rank in pending:
            self.machine.sim.schedule(0.0, self._start_leave, rank)

    # ------------------------------------------------------------------
    def _on_crash_detected(self, rank: int) -> None:
        """A (possibly false) death declaration: if it took the root,
        elect a successor so joins/leaves/phases keep a live coordinator."""
        if rank == self.root and len(self.machine.alive_ranks()) >= 1:
            self._start_election()
