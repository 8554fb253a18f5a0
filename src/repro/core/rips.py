"""Runtime Incremental Parallel Scheduling — the paper's contribution.

Execution alternates between **user phases** (nodes execute tasks from
their RTE queues, newly generated tasks accumulate) and **system phases**
(all processors cooperatively rebalance).  This module implements the
full protocol of Section 2 on the simulated machine, with every policy
combination of the paper:

local policy (``EAGER`` / ``LAZY``)
    Eager keeps two queues: generated tasks enter the ready-to-schedule
    (RTS) queue and *must* pass a system phase before execution.  Lazy
    uses a single RTE queue; tasks may be generated and executed on the
    same node without ever being scheduled — only the leftovers of a
    phase transfer get scheduled.

global policy (``ALL`` / ``ANY``)
    ALL transfers to the system phase when *every* node has drained its
    RTE queue, detected by the ready-signal tree of Section 2 (a node
    signals its parent once it and all its children are ready; the root
    broadcasts *init*).  ANY transfers as soon as *one* node drains,
    that node broadcasting *init* itself (the or-barrier/eureka pattern);
    duplicate initiators are suppressed by the phase index.

System phase protocol (per phase ``p``):

1. *init(p)* reaches a node: it finishes its current task (no
   preemption), pauses execution, moves leftover RTE tasks (plus the
   whole RTS queue under eager) into its scheduling pool, and
   contributes its pool size to a load gather up the spanning tree.
2. The root runs the redistribution planner (MWA on a mesh) on the load
   vector and sends every node its *plan*: final quota, expected
   incoming count, and an outgoing transfer list.
3. Nodes send packed task messages straight to their destinations —
   preferring to forward tasks that are already non-local, which is what
   makes MWA's locality guarantee (Theorem 2) hold end-to-end — and
   resume the user phase once all expected tasks have arrived.
4. If the gathered total is zero the root broadcasts *sleep* (more
   waves pending) or *done* (workload finished) instead of plans.

The planner decisions are computed array-level (:mod:`repro.core.mwa`);
the message-level MWA protocol in :mod:`repro.core.mwa_protocol` is
validated against it.  The gather/plan/migrate message exchange above is
fully simulated, so detection cost, scheduling cost, and migration cost
all land in the measured overhead ``Th`` exactly like the paper's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.balancers.base import RunMetrics, Strategy
from repro.machine import BinomialBroadcast, GatherTree, Message
from repro.machine.collectives import survivor_tree
from .schedulers import (
    Planner,
    RedistributionPlan,
    default_planner,
    greedy_subset_plan,
)

__all__ = ["LocalPolicy", "GlobalPolicy", "RIPS"]


class LocalPolicy(str, enum.Enum):
    """When must a task pass a system phase before executing?"""

    EAGER = "eager"
    LAZY = "lazy"


class GlobalPolicy(str, enum.Enum):
    """How many nodes must satisfy the local condition to switch phase?"""

    ALL = "all"
    ANY = "any"


def _merge_loads(a: dict, b: dict) -> dict:
    """GatherTree combiner for per-rank load counts.

    Module-level (not a lambda) so the gather tree — and with it the
    whole machine graph — stays picklable for checkpoint/restore.
    """
    return {**a, **b}


class _Mode(enum.Enum):
    USER = enum.auto()
    STOPPING = enum.auto()  # init seen, finishing the current task
    SYSTEM = enum.auto()  # contributed, waiting for plan / migrations
    DONE = enum.auto()


@dataclass
class _NodeState:
    mode: _Mode = _Mode.USER
    completed_phase: int = 0  # last system phase this node finished
    target_phase: int = 0  # phase currently being executed (mode SYSTEM)
    pending_init: int = 0  # init seen while still in a system phase
    rts: list[int] = field(default_factory=list)  # eager's RTS queue
    pool: list[int] = field(default_factory=list)  # tasks being scheduled
    pinned_hold: list[int] = field(default_factory=list)
    incoming_expected: int = 0
    incoming_got: int = 0
    plan_received: bool = False
    initiated_phase: int = 0  # ANY: last phase this node initiated
    ready_sent_phase: int = 0  # ALL: last phase we signalled up the tree
    # ALL: per-target-phase count of ready children subtrees (a child may
    # signal readiness for phase p+1 while we are still completing p)
    ready_counts: dict[int, int] = field(default_factory=dict)
    asleep: bool = False  # suppress triggers until new tasks appear


class RIPS(Strategy):
    """Runtime Incremental Parallel Scheduling."""

    def __init__(
        self,
        local_policy: LocalPolicy | str = LocalPolicy.LAZY,
        global_policy: GlobalPolicy | str = GlobalPolicy.ANY,
        planner: Optional[Planner] = None,
        plan_compute_per_node: float = 1e-6,
    ) -> None:
        super().__init__()
        self.local_policy = LocalPolicy(local_policy)
        self.global_policy = GlobalPolicy(global_policy)
        self._planner = planner
        self.plan_compute_per_node = plan_compute_per_node
        self.name = f"RIPS-{self.global_policy.value}-{self.local_policy.value}"
        # stats
        self.num_phases = 0
        self.migrated_tasks = 0
        self.plan_cost_total = 0
        self.abandoned_phases = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def attach(self, driver) -> None:
        super().attach(driver)
        machine = self.machine
        if self._planner is None:
            self._planner = default_planner(machine.topology)
        self.states = [_NodeState() for _ in range(machine.num_nodes)]
        self._bcast_init = BinomialBroadcast(machine, "rips.init", self._on_init)
        self._bcast_ctrl = BinomialBroadcast(machine, "rips.ctrl", self._on_ctrl)
        self._gather = GatherTree(
            machine,
            "rips.load",
            combine=_merge_loads,
            on_result=self._on_loads_gathered,
            root=0,
        )
        self._tree_parent, self._tree_children = machine.topology.spanning_tree(0)
        for node in machine.nodes:
            node.on("rips.ready", self._on_ready)
            node.on("rips.plan", self._on_plan)
        self._initial_phase_requested = False
        #: hardened mode: tolerate faults (stale protocol traffic is
        #: dropped instead of raising) and recover from fail-stop crashes.
        #: On a fault-free machine every new guard below is inert.
        self._hardened = machine.faults is not None
        #: current protocol root (re-elected as min(alive) after a crash).
        self._root = 0
        #: one root per reachability component while partitioned.
        self._roots = [0]
        #: highest system phase abandoned because of a crash; protocol
        #: traffic for phases <= this watermark is stale by definition.
        self._max_abandoned = 0
        #: widest post-plan quota spread seen (obs-rich runs only); the
        #: chaos checker asserts it stays <= 1.
        self.max_quota_spread = 0
        if self._hardened:
            machine.faults.on_membership_changed(self._on_membership_event)
            if machine.faults.membership is not None:
                # elastic plan: the collective trees must span only the
                # *initial* members — a standby rank neither contributes
                # to gathers nor receives inits until its join commits.
                # No kicks: the driver has not started yet.
                self._membership_changed(kick=False)

    # ------------------------------------------------------------------
    # placement hooks (driver side)
    # ------------------------------------------------------------------
    def place_root(self, node: int, task: int) -> None:
        """Wave-0 roots wait in the pool for the initial system phase
        (Figure 1: a RIPS run *starts* with a system phase)."""
        st = self.states[node]
        if self.driver.trace.task(task).pinned is not None:
            self.worker(node).enqueue(task)
        else:
            st.rts.append(task)
        if not self._initial_phase_requested:
            self._initial_phase_requested = True
            # fire the very first init from the root at t=0
            self.machine.sim.schedule(0.0, self._initiate, self._root)

    def place_child(self, node: int, task: int) -> None:
        st = self.states[node]
        pinned = self.driver.trace.task(task).pinned is not None
        if pinned:
            self.worker(node).enqueue(task)
        elif self.local_policy is LocalPolicy.EAGER:
            st.rts.append(task)
        else:
            self.worker(node).enqueue(task)
        if st.asleep and not pinned:
            # New reschedulable work in a quiescent system: wake everyone
            # with a fresh system phase so the work gets scheduled, not
            # hoarded.  (A pinned task cannot migrate, so it just runs
            # here — waking the machine for it would loop: the gather
            # would still see zero schedulable tasks.)
            st.asleep = False
            if st.mode is _Mode.USER:
                self._initiate(node)

    def place_released(self, node: int, task: int) -> None:
        # Wave-barrier-released tasks behave like freshly generated ones.
        self.place_child(node, task)

    def on_wave_released(self, wave: int) -> None:
        """A new wave appeared: schedule it with a fresh system phase
        (one per reachability component while partitioned)."""
        for root in self._roots:
            self._initiate(root)

    # ------------------------------------------------------------------
    # fail-stop / membership recovery
    # ------------------------------------------------------------------
    def on_node_removed(self, rank: int) -> list[int]:
        """Hand the leaving node's pooled tasks back to the driver (which
        re-places them on survivors, or writes off work pinned to a
        crashed node), then rebuild the protocol over the survivors."""
        node = self.machine.nodes[rank]
        st = self.states[rank]
        st.mode = _Mode.DONE
        handed = st.pool + st.rts + st.pinned_hold
        st.pool = []
        st.rts = []
        st.pinned_hold = []
        tr = self.tracer
        if tr is not None:
            # close any phase sub-span the node left open
            outcome = "crashed" if node.crashed or node.fenced else "departed"
            now = self.machine.sim.now
            for name in ("transfer", "gather", "init"):
                tr.end(rank, "phase", name, now, {"outcome": outcome})
        self._membership_changed()
        return handed

    def on_node_added(self, rank: int) -> None:
        """A node joined, or refuted a false death (its old state was
        written off at the declaration).  Give it a fresh protocol state
        and rebuild the forests over the grown member set —
        synchronously, before the driver enables its worker, so the
        first gather the node contributes to already expects it."""
        self.states[rank] = _NodeState()
        self._membership_changed()

    def _on_membership_event(self, event: str) -> None:
        """Injector callback: a scheduled mesh cut began or healed, or a
        root election committed a new coordinator."""
        self._membership_changed()

    def _current_groups(self, alive: list[int]) -> list[list[int]]:
        """Reachability components restricted to usable ranks."""
        inj = self.machine.faults
        if inj is None:
            return [list(alive)]
        alive_set = set(alive)
        groups = [[r for r in comp if r in alive_set]
                  for comp in inj.components()]
        return [g for g in groups if g]

    def _group_roots(self, groups: list[list[int]]) -> list[int]:
        """One protocol root per component: the *elected* membership
        root where it participates, the smallest usable rank elsewhere
        (crash-only plans have no elected root and keep the min rule)."""
        inj = self.machine.faults
        mgr = inj.membership if inj is not None else None
        elected = mgr.root if mgr is not None else None
        return [elected if elected in g else g[0] for g in groups]

    def _membership_changed(self, kick: bool = True) -> None:
        """Rebuild the protocol over the current membership epoch.

        Handles crashes, partitions, heals, rejoins, joins, leaves, and
        elections uniformly: pick one root per reachability component
        (the elected membership root where present, else its smallest
        usable rank) and rebuild every collective as a *forest* over the
        components — each component then runs system phases locally;
        abandon any system phase caught mid-flight (nodes revert to USER
        with their tasks back in their RTE queues); re-synchronize phase
        counters so the next phase has one consistent number per
        component; and kick every node so idle ones re-arm phase
        detection on their own (``kick=False`` at attach time, before
        the driver has started).
        """
        machine = self.machine
        alive = machine.alive_ranks()
        groups = self._current_groups(alive)
        roots = self._group_roots(groups)
        self._roots = roots
        self._root = roots[0]
        n = machine.num_nodes
        parent = [-2] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for g, g_root in zip(groups, roots):
            g_parent, g_children = survivor_tree(machine.topology, g, g_root)
            for r in g:
                parent[r] = g_parent[r]
                children[r] = g_children[r]
        self._tree_parent, self._tree_children = parent, children
        self._gather.rebuild_groups(groups, roots=roots)
        self._bcast_init.set_groups(groups)
        self._bcast_ctrl.set_groups(groups)
        abandoned = 0
        for rank in alive:
            st = self.states[rank]
            if st.mode is _Mode.DONE:
                continue
            if st.mode in (_Mode.SYSTEM, _Mode.STOPPING):
                # abandon: put pooled work back and return to the user phase
                abandoned = max(abandoned, st.target_phase)
                worker = self.worker(rank)
                for tid in st.pinned_hold:
                    worker.enqueue(tid, front=True)
                for tid in st.pool:
                    worker.enqueue(tid)
                st.pinned_hold.clear()
                st.pool = []
                st.completed_phase = max(st.completed_phase, st.target_phase)
                st.mode = _Mode.USER
                worker.enabled = True
                tr = self.tracer
                if tr is not None:
                    # close whichever phase sub-span was open on this node
                    now = machine.sim.now
                    tr.end(rank, "phase", "transfer", now)
                    tr.end(rank, "phase", "gather", now)
                    tr.end(rank, "phase", "init", now)
            st.pending_init = 0
            st.ready_counts.clear()
        if abandoned:
            self.abandoned_phases += 1
            self._max_abandoned = max(self._max_abandoned, abandoned)
            self._gather.discard_rounds_below(abandoned + 1)
        # one consistent phase number across survivors (ALL-policy ready
        # targets must agree, or the root never sees a full count)
        sync = max(self.states[r].completed_phase for r in alive)
        for rank in alive:
            st = self.states[rank]
            if st.mode is _Mode.DONE:
                continue
            st.completed_phase = sync
            st.target_phase = sync
            st.initiated_phase = min(st.initiated_phase, sync)
            st.ready_sent_phase = min(st.ready_sent_phase, sync)
        # After the driver finishes re-placing rescued tasks (it runs
        # synchronously after this callback), kick every survivor so an
        # idle one re-arms phase detection instead of waiting forever.
        if kick:
            for rank in alive:
                machine.sim.schedule(0.0, self._post_crash_kick, rank)

    def _post_crash_kick(self, rank: int) -> None:
        st = self.states[rank]
        node = self.machine.nodes[rank]
        if (st.mode is not _Mode.USER or node.crashed
                or node.membership != "member"):
            return
        worker = self.worker(rank)
        worker.try_start()
        if worker.rte_empty and not st.asleep:
            self.on_idle(rank)

    # ------------------------------------------------------------------
    # user-phase triggers
    # ------------------------------------------------------------------
    def on_task_complete(self, node: int, task: int) -> None:
        st = self.states[node]
        if st.mode is _Mode.STOPPING and self.worker(node).outstanding is None:
            self._enter_system_phase(node)

    def on_idle(self, node: int) -> None:
        rank = node
        st = self.states[rank]
        if st.mode is not _Mode.USER or st.asleep:
            return
        if self.global_policy is GlobalPolicy.ANY:
            if st.initiated_phase <= st.completed_phase:
                st.initiated_phase = st.completed_phase + 1
                # Randomized backoff before broadcasting init: when many
                # nodes drain at once (common right after a phase hands a
                # few nodes zero tasks), all of them would flood the mesh
                # with redundant init broadcasts.  A short stagger lets
                # the first broadcast suppress the rest — the software
                # stand-in for the Cray T3D eureka or-barrier the paper
                # recommends for the ANY policy.
                lat = self.machine.latency
                horizon = 2.0 * self.machine.topology.diameter() * lat.per_hop
                delay = float(self.machine.rng.uniform(0.0, horizon))
                self.machine.sim.schedule(
                    delay, self._initiate_if_still_needed, rank,
                    st.initiated_phase,
                )
        else:
            self._maybe_send_ready(rank)

    def _initiate_if_still_needed(self, rank: int, phase: int) -> None:
        st = self.states[rank]
        if (
            st.mode is _Mode.USER
            and not st.asleep
            and st.completed_phase + 1 == phase
            and self.worker(rank).rte_empty
        ):
            self._initiate(rank)

    def _initiate(self, rank: int) -> None:
        if self._hardened:
            node = self.machine.nodes[rank]
            if node.crashed or node.departed:
                # raw sim-scheduled triggers (backoff timers, wave
                # releases) are not gated by dispatch; a dead or
                # departed node must not initiate
                return
        st = self.states[rank]
        self._bcast_init.broadcast(rank, st.completed_phase + 1)

    # ------------------------------------------------------------------
    # ALL policy: the ready-signal tree
    # ------------------------------------------------------------------
    def _maybe_send_ready(self, rank: int) -> None:
        st = self.states[rank]
        if st.mode is not _Mode.USER or st.asleep:
            return
        target = st.completed_phase + 1
        if st.ready_sent_phase >= target:
            return
        if not self.worker(rank).rte_empty:
            return
        if st.ready_counts.get(target, 0) < len(self._tree_children[rank]):
            return
        st.ready_sent_phase = target
        if self._tree_parent[rank] == -1:  # a (forest) root
            self._initiate(rank)
        else:
            self.machine.node(rank).send(
                self._tree_parent[rank], "rips.ready", target, reliable=True
            )

    def _on_ready(self, msg: Message) -> None:
        st = self.states[msg.dest]
        target = msg.payload
        st.ready_counts[target] = st.ready_counts.get(target, 0) + 1
        self._maybe_send_ready(msg.dest)

    # ------------------------------------------------------------------
    # phase switch: init -> stop -> contribute
    # ------------------------------------------------------------------
    def _on_init(self, rank: int, phase: int) -> None:
        st = self.states[rank]
        if st.mode is _Mode.DONE or phase <= st.completed_phase:
            return
        if st.mode in (_Mode.SYSTEM, _Mode.STOPPING):
            # still completing the previous system phase; remember the init
            if phase > st.target_phase:
                st.pending_init = max(st.pending_init, phase)
            return
        st.mode = _Mode.STOPPING
        st.target_phase = phase
        tr = self.tracer
        if tr is not None:
            tr.begin(rank, "phase", "init", self.machine.sim.now,
                     {"phase": phase})
        worker = self.worker(rank)
        worker.enabled = False
        if worker.outstanding is None:
            self._enter_system_phase(rank)
        # else: on_task_complete finishes the stop

    def _enter_system_phase(self, rank: int) -> None:
        st = self.states[rank]
        worker = self.worker(rank)
        st.mode = _Mode.SYSTEM
        st.incoming_expected = 0
        st.incoming_got = 0
        st.plan_received = False
        # Collect every reschedulable task: leftover RTE + (eager) RTS.
        leftovers = worker.drain()
        pool: list[int] = []
        trace = self.driver.trace
        for tid in leftovers + st.rts:
            if trace.task(tid).pinned is not None:
                st.pinned_hold.append(tid)
            else:
                pool.append(tid)
        st.rts.clear()
        st.pool = pool
        tr = self.tracer
        if tr is not None:
            now = self.machine.sim.now
            tr.end(rank, "phase", "init", now)
            tr.begin(rank, "phase", "gather", now,
                     {"phase": st.target_phase, "pooled": len(pool)})
        self._gather.contribute(rank, st.target_phase, {rank: len(pool)})

    # ------------------------------------------------------------------
    # root: plan and distribute
    # ------------------------------------------------------------------
    def _plan_over_survivors(
        self, loads: np.ndarray, alive: list[int]
    ) -> RedistributionPlan:
        """Centralized greedy plan once the machine has holes in it.

        The regular planners (MWA et al.) assume the full topology; with
        fail-stopped (or departed) ranks the quota lattice no longer
        exists, so the root falls back to the shared surplus/deficit
        pairing of :func:`greedy_subset_plan`.
        """
        return greedy_subset_plan(self.machine.topology, loads, alive)

    def _on_loads_gathered(self, phase: int, loads_by_rank: dict[int, int]) -> None:
        machine = self.machine
        if self._hardened and phase <= self._max_abandoned:
            return  # stale round from before a crash rebuilt the tree
        n = machine.num_nodes
        loads = np.zeros(n, dtype=np.int64)
        for r, c in loads_by_rank.items():
            loads[r] = c
        total = int(loads.sum())
        if self._hardened:
            # This result belongs to one gather-forest component: exactly
            # the ranks that contributed.  Its root is the smallest member
            # (how the forest was built; a crashed root cannot complete a
            # round, so the min is usable).  Plan only over members still
            # usable *now* — one may have crashed after contributing,
            # inside the detection window.
            ranks = [r for r in sorted(loads_by_rank) if machine.usable(r)]
            root_rank = min(loads_by_rank)
            mgr = machine.faults.membership
            if mgr is not None and mgr.root in ranks:
                # the forest was rooted at the *elected* root; the plan
                # must be computed (and charged) where the gather landed
                root_rank = mgr.root
        else:
            ranks = list(range(n))
            root_rank = self._root
        root = machine.node(root_rank)
        if total == 0:
            kind = "done" if self.driver.finished else "sleep"
            root.exec_cpu(
                self.plan_compute_per_node, "overhead",
                self._bcast_ctrl.broadcast, root_rank, (phase, kind),
            )
            return
        if len(ranks) < n:
            plan = self._plan_over_survivors(loads, ranks)
        else:
            plan = self._planner.plan(loads)
        inj = machine.faults
        if inj is not None and inj.obs_rich:
            # the RIPS balance invariant, per component: post-plan quotas
            # among the participating ranks may differ by at most 1
            quotas = [int(plan.quotas[r]) for r in ranks]
            spread = max(quotas) - min(quotas)
            self.max_quota_spread = max(self.max_quota_spread, spread)
            tr = self.tracer
            if tr is not None:
                tr.instant(root_rank, "phase", "phase-balance",
                           machine.sim.now,
                           {"phase": phase, "spread": spread,
                            "ranks": len(ranks)})
        self.num_phases += 1
        self.migrated_tasks += sum(c for (_s, _d, c) in plan.transfers)
        self.plan_cost_total += plan.cost
        outgoing: dict[int, list[tuple[int, int]]] = {r: [] for r in ranks}
        incoming = [0] * n
        for (s, d, c) in plan.transfers:
            outgoing[s].append((d, c))
            incoming[d] += c

        plan_time = self.plan_compute_per_node * n
        # planner computation charged at the root (the array-level stand-in
        # for the distributed 3(n1+n2)-step algorithm; see DESIGN.md)
        root.exec_cpu(plan_time, "overhead", self._send_plans,
                      root_rank, phase, total, plan, outgoing, incoming,
                      ranks, plan_time)

    def _send_plans(self, root_rank: int, phase: int, total: int,
                    plan: RedistributionPlan, outgoing: dict, incoming: list,
                    ranks: Sequence[int], plan_time: float) -> None:
        root = self.machine.node(root_rank)
        tr = self.tracer
        if tr is not None:
            tr.complete(root_rank, "phase", "plan",
                        self.machine.sim.now - plan_time, plan_time,
                        {"phase": phase, "total_load": total,
                         "transfers": len(plan.transfers),
                         "plan_cost": plan.cost})
        for r in ranks:
            root.send(
                r, "rips.plan",
                (phase, outgoing[r], incoming[r]),
                size=32 + 12 * len(outgoing[r]),
                reliable=True,
            )

    def _on_ctrl(self, rank: int, payload: tuple[int, str]) -> None:
        phase, kind = payload
        st = self.states[rank]
        if phase < st.target_phase or st.mode is _Mode.DONE:
            return
        if self._hardened and (phase <= self._max_abandoned
                              or st.mode is not _Mode.SYSTEM):
            # sleep/done for an abandoned phase, or arriving at a node the
            # recovery already reverted to USER: stale, drop it (a stale
            # "sleep" honored here would quiesce a node that holds work)
            return
        tr = self.tracer
        if tr is not None:
            tr.end(rank, "phase", "gather", self.machine.sim.now,
                   {"outcome": kind})
        if kind == "done":
            st.mode = _Mode.DONE
            st.completed_phase = phase
            return
        # sleep: resume the user phase quiescently
        st.asleep = True
        self._resume(rank, phase)

    # ------------------------------------------------------------------
    # node: execute the plan
    # ------------------------------------------------------------------
    def _on_plan(self, msg: Message) -> None:
        phase, outgoing, incoming = msg.payload
        rank = msg.dest
        st = self.states[rank]
        if st.mode is not _Mode.SYSTEM or phase != st.target_phase:
            if self._hardened and phase <= max(st.completed_phase,
                                               self._max_abandoned):
                return  # stale plan for a phase recovery abandoned
            raise RuntimeError(
                f"node {rank}: unexpected plan for phase {phase} in {st.mode}"
            )
        st.plan_received = True
        st.incoming_expected = incoming
        tr = self.tracer
        if tr is not None:
            now = self.machine.sim.now
            tr.end(rank, "phase", "gather", now, {"outcome": "plan"})
            tr.begin(rank, "phase", "transfer", now,
                     {"phase": phase, "outgoing": len(outgoing),
                      "incoming": incoming})
        created_at = self.driver.created_at
        # Prefer forwarding tasks that are already non-local so that local
        # tasks stay local (this realizes Theorem 2's bound end-to-end).
        st.pool.sort(key=lambda tid: 0 if created_at[tid] != rank else 1)
        for dest, count in outgoing:
            batch = st.pool[:count]
            del st.pool[:count]
            if len(batch) != count:  # pragma: no cover - plan is consistent
                raise RuntimeError("plan asked for more tasks than pooled")
            self.send_tasks(rank, dest, batch)
        self._maybe_resume(rank)

    def on_tasks_received(self, node: int, tasks: Sequence[int]) -> None:
        st = self.states[node]
        if st.mode is _Mode.SYSTEM:
            st.incoming_got += len(tasks)
            self._maybe_resume(node)
        else:
            st.asleep = False

    def _maybe_resume(self, rank: int) -> None:
        st = self.states[rank]
        if st.mode is _Mode.SYSTEM and st.plan_received and \
                st.incoming_got >= st.incoming_expected:
            st.asleep = False
            self._resume(rank, st.target_phase)

    def _resume(self, rank: int, phase: int) -> None:
        st = self.states[rank]
        worker = self.worker(rank)
        tr = self.tracer
        if tr is not None:
            now = self.machine.sim.now
            tr.end(rank, "phase", "transfer", now)
            tr.instant(rank, "phase", "resume", now, {"phase": phase})
        # Everything left in the pool plus pinned tasks re-enter the RTE
        # queue; migrated-in tasks were enqueued on arrival.
        for tid in st.pinned_hold:
            worker.enqueue(tid, front=True)
        for tid in st.pool:
            worker.enqueue(tid)
        st.pinned_hold.clear()
        st.pool = []
        st.completed_phase = phase
        st.target_phase = phase
        st.mode = _Mode.USER
        for p in [p for p in st.ready_counts if p <= phase]:
            del st.ready_counts[p]
        worker.enabled = True
        pending = st.pending_init
        st.pending_init = 0
        if pending > phase:
            self._on_init(rank, pending)
            return
        trace = self.driver.trace
        reschedulable = bool(st.rts) or any(
            trace.task(tid).pinned is None for tid in worker.queue
        )
        if st.asleep and reschedulable:
            # Went to sleep while reschedulable work slipped in (late
            # spawns): reschedule.  Pinned tasks do not count — they run
            # locally below and cannot be redistributed anyway.
            st.asleep = False
            self._initiate(rank)
            return
        worker.try_start()
        # A node that came out of the phase with nothing to do triggers the
        # next transfer (unless the whole system was put to sleep).
        if worker.rte_empty and not st.asleep:
            self.on_idle(rank)

    # ------------------------------------------------------------------
    def finalize_metrics(self, metrics: RunMetrics) -> None:
        metrics.system_phases = self.num_phases
        metrics.extra["migrated_tasks"] = self.migrated_tasks
        metrics.extra["plan_cost_total"] = self.plan_cost_total
        metrics.extra["local_policy"] = self.local_policy.value
        metrics.extra["global_policy"] = self.global_policy.value
        if self.abandoned_phases:
            metrics.extra["abandoned_phases"] = self.abandoned_phases
        inj = self.machine.faults if self.machine is not None else None
        if inj is not None and inj.obs_rich:
            metrics.extra["max_quota_spread"] = self.max_quota_spread
