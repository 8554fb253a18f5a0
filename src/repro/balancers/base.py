"""Execution runtime and the load-balancing strategy interface.

A :class:`Driver` replays a :class:`~repro.tasks.trace.WorkloadTrace` on a
:class:`~repro.machine.machine.Machine` under a :class:`Strategy`.  The
driver owns the application-side mechanics that are identical across
strategies — task execution on the node CPU, spawning, wave barriers,
bookkeeping for the Table-I metrics — while the strategy decides *where
tasks go*:

* :meth:`Strategy.place_root` — initial placement of wave-0 roots;
* :meth:`Strategy.place_child` — placement of a freshly spawned task;
* :meth:`Strategy.on_task_complete` / :meth:`Strategy.on_idle` — hooks
  where dynamic balancers (gradient, RID) and RIPS phase detection live;
* :meth:`Strategy.on_node_removed` / :meth:`Strategy.on_node_added` — a
  rank leaves or enters the usable set (crash, false death or drain;
  join or refutation), under a fault plan only.

Strategy lifecycle
------------------
A strategy joins a run through exactly one hook: :meth:`Strategy.attach`.
The driver calls ``strategy.attach(driver)`` once at construction;
subclasses override it, call ``super().attach(driver)`` first (which
stores the driver and registers the shared ``task`` message handler), and
then set up their own per-node state and protocol handlers.  The decision
hooks share one signature vocabulary: ``node`` is a rank, ``task`` a task
id.

Metric definitions (matching Table I of the paper)
---------------------------------------------------
``T``   makespan in simulated seconds;
``Th``  per-processor average CPU time in the ``overhead`` category
        (message software overhead, task dispatch/creation, scheduling);
``Ti``  per-processor average idle time, ``T - task_time - Th``;
``mu``  efficiency ``Ts / (N * T)`` with ``Ts`` the sum of task work;
``nonlocal`` number of tasks executed on a different node than the one
        where they were created (locality measure).
"""

from __future__ import annotations

from abc import ABC
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.machine import (
    Machine,
    Message,
    modeled_barrier_latency,
    task_message_bytes,
)
from repro.tasks.trace import WorkloadTrace

__all__ = ["ExecutionConfig", "RunMetrics", "Strategy", "Driver"]


@dataclass(frozen=True)
class ExecutionConfig:
    """Costs of the runtime mechanics, charged as ``overhead`` CPU time."""

    #: dequeue + dispatch cost paid before each task runs
    task_start_overhead: float = 4e-6
    #: cost of creating one child task (charged to the spawning node)
    spawn_overhead: float = 6e-6
    #: per-node cost of one scheduling decision step (strategy bookkeeping)
    decision_overhead: float = 4e-6

    def __post_init__(self) -> None:
        for name in ("task_start_overhead", "spawn_overhead", "decision_overhead"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class RunMetrics:
    """Outcome of one scheduled run (one Table-I cell group)."""

    workload: str
    strategy: str
    num_nodes: int
    num_tasks: int
    nonlocal_tasks: int
    T: float
    Th: float
    Ti: float
    efficiency: float
    Ts: float
    messages: int = 0
    bytes: int = 0
    task_hops: int = 0
    system_phases: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.Ts / self.T if self.T > 0 else 0.0

    def row(self) -> dict:
        """Flat dict for table rendering."""
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "N": self.num_nodes,
            "tasks": self.num_tasks,
            "nonlocal": self.nonlocal_tasks,
            "Th": self.Th,
            "Ti": self.Ti,
            "T": self.T,
            "mu": self.efficiency,
        }


class Worker:
    """Per-node task execution loop (the RTE queue plus the CPU driver)."""

    def __init__(self, driver: "Driver", rank: int) -> None:
        self.driver = driver
        self.rank = rank
        self.node = driver.machine.node(rank)
        self.queue: deque[int] = deque()  # the RTE queue (task ids)
        self.outstanding: Optional[int] = None  # task currently on the CPU
        self.enabled = True  # RIPS pauses execution during system phases

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Queue length plus the in-flight task (the RID load measure)."""
        return len(self.queue) + (1 if self.outstanding is not None else 0)

    @property
    def rte_empty(self) -> bool:
        """The paper's local transfer condition: nothing left to execute."""
        return not self.queue and self.outstanding is None

    def enqueue(self, tid: int, front: bool = False) -> None:
        if front:
            self.queue.appendleft(tid)
        else:
            self.queue.append(tid)

    def take(self, k: int) -> list[int]:
        """Remove up to ``k`` tasks from the back of the queue (for
        migration; the back holds the coldest tasks)."""
        out = []
        for _ in range(min(k, len(self.queue))):
            out.append(self.queue.pop())
        return out

    def drain(self) -> list[int]:
        """Remove and return all queued tasks (system-phase collection)."""
        out = list(self.queue)
        self.queue.clear()
        return out

    # ------------------------------------------------------------------
    def try_start(self) -> None:
        """Start the next task if allowed; notify the strategy on idle."""
        if self.outstanding is not None or not self.enabled:
            return
        if not self.queue:
            self.driver.strategy.on_idle(self.rank)
            return
        tid = self.queue.popleft()
        self.outstanding = tid
        cfg = self.driver.config
        self.node.exec_cpu(cfg.task_start_overhead, "overhead")
        self.node.exec_cpu(
            self.driver.trace.duration(tid), "task", self._complete, tid
        )

    def _complete(self, tid: int) -> None:
        self.outstanding = None
        tr = self.node.tracer
        if tr is not None:
            dur = self.driver.trace.duration(tid)
            tr.complete(self.rank, "task", f"task:{tid}",
                        self.node.sim.now - dur, dur)
        self.driver._task_finished(self.rank, tid)


class Strategy(ABC):
    """Where-do-tasks-go policy.  Subclasses: Random, Gradient, RID, RIPS."""

    #: short name used in tables
    name: str = "abstract"

    def __init__(self) -> None:
        self.driver: Optional[Driver] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, driver: "Driver") -> None:
        """The single setup hook: wire this strategy to ``driver``.

        Subclasses override this, call ``super().attach(driver)`` first,
        then build their per-node state and register protocol message
        handlers.  The base implementation stores the driver and
        registers the shared ``task`` migration handler on every node.
        """
        self.driver = driver
        for node in driver.machine.nodes:
            node.on("task", self._on_task_message)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def machine(self) -> Machine:
        assert self.driver is not None
        return self.driver.machine

    @property
    def tracer(self):
        """The machine's attached tracer, or None (read dynamically so a
        tracer attached after construction is still honored)."""
        return self.driver.machine.tracer if self.driver is not None else None

    def worker(self, rank: int) -> Worker:
        assert self.driver is not None
        return self.driver.workers[rank]

    def send_tasks(self, src: int, dest: int, tids: Sequence[int],
                   front: bool = False) -> None:
        """Migrate tasks ``src -> dest`` as one packed message."""
        if not tids:
            return
        if src == dest:
            w = self.worker(src)
            for tid in tids:
                w.enqueue(tid, front=front)
            w.try_start()
            return
        trace = self.driver.trace
        payload_bytes = sum(trace.task(t).data_bytes for t in tids)
        # reliable is free on a fault-free machine; under a fault plan it
        # puts every migration inside the ack/retransmit envelope, which
        # is what makes task conservation provable (see repro.faults).
        self.machine.node(src).send(
            dest, "task", (list(tids), front),
            size=task_message_bytes(0) + payload_bytes,
            tasks_carried=len(tids),
            reliable=True,
        )

    def _on_task_message(self, msg: Message) -> None:
        tids, front = msg.payload
        w = self.worker(msg.dest)
        for tid in tids:
            w.enqueue(tid, front=front)
        self.on_tasks_received(msg.dest, tids)
        w.try_start()

    # ------------------------------------------------------------------
    # decision hooks — uniform vocabulary: ``node`` is a rank, ``task``
    # a task id, across every strategy in the tree.
    # ------------------------------------------------------------------
    def place_root(self, node: int, task: int) -> None:
        """Place a wave-0 root that materialized on ``node``.

        Default: run where it lives.
        """
        w = self.worker(node)
        w.enqueue(task)
        w.try_start()

    def place_child(self, node: int, task: int) -> None:
        """Place a task freshly spawned on ``node``.  Default: local."""
        w = self.worker(node)
        w.enqueue(task)

    def place_released(self, node: int, task: int) -> None:
        """Place a wave-barrier-released task residing on ``node``."""
        self.place_child(node, task)

    def on_task_complete(self, node: int, task: int) -> None:
        """Called after a task finished and its children were placed."""

    def on_tasks_received(self, node: int, tasks: Sequence[int]) -> None:
        """Called when migrated tasks arrive (before execution resumes)."""

    def on_idle(self, node: int) -> None:
        """Called whenever ``node`` has nothing to execute."""

    def on_wave_released(self, wave: int) -> None:
        """Called after all tasks of ``wave`` were made runnable."""

    def on_workload_done(self) -> None:
        """Called once when the last task of the last wave completed."""

    def on_node_removed(self, node: int) -> list[int]:
        """Called when ``node`` leaves the usable set, before the driver
        rescues its work: at crash *detection*, at a (possibly false)
        death declaration, and while a leaving member drains.  The
        node's own state tells these apart (``crashed``, ``fenced``, or
        neither for a drain).

        The strategy must stop routing new tasks to the rank and repair
        any internal protocol state (collective trees, neighbor tables)
        over the shrunk set.  Returns the task ids it was holding on or
        for the node (e.g. RIPS transfer pools) so the driver can
        re-place them; only work pinned to a node that really crashed is
        ever declared lost.
        """
        return []

    def on_node_added(self, node: int) -> None:
        """Called when ``node`` enters the usable set: admitted at a join
        epoch commit, or re-admitted after refuting a false death (its
        work was rescued at the declaration, so it comes back empty).
        No task can reach the node before this hook returns: the
        strategy folds it into its trees/tables and resumes routing work
        to it.
        """

    # ------------------------------------------------------------------
    def finalize_metrics(self, metrics: RunMetrics) -> None:
        """Strategy-specific additions to the metrics (e.g. phase count)."""


class Driver:
    """Replays one workload trace under one strategy on one machine."""

    def __init__(
        self,
        machine: Machine,
        trace: WorkloadTrace,
        strategy: Strategy,
        config: ExecutionConfig = ExecutionConfig(),
    ) -> None:
        self.machine = machine
        self.trace = trace
        self.strategy = strategy
        self.config = config
        self.workers = [Worker(self, r) for r in range(machine.num_nodes)]
        n_tasks = len(trace)
        self.created_at: list[int] = [-1] * n_tasks
        self.executed_at: list[int] = [-1] * n_tasks
        self._remaining = n_tasks
        self._wave_remaining = [trace.wave_size(w) for w in range(trace.num_waves)]
        self.current_wave = 0
        # cross-wave children buffered at the node where their parent ran
        self._held: list[list[tuple[int, int]]] = [
            [] for _ in range(trace.num_waves)
        ]  # per wave: list of (node, tid)
        self.finished = False
        self._barrier_pending = False
        # completions whose spawn-cost CPU item is still in flight:
        # tid -> (rank, same-wave children).  A fail-stop in this window
        # would otherwise wipe the children before they ever exist.
        self._spawning: dict[int, tuple[int, list[int]]] = {}
        #: tasks provably lost to fail-stop crashes: (task id, reason)
        self.lost_tasks: list[tuple[int, str]] = []
        self._lost: set[int] = set()
        self.crashed_nodes: list[int] = []
        #: falsely-declared-dead nodes that refuted and rejoined
        self.rejoined_nodes: list[int] = []
        #: elastic membership: ranks admitted / drained at runtime
        self.joined_nodes: list[int] = []
        self.departed_nodes: list[int] = []
        #: pinned tasks handed off by a departing node: tid -> new pin.
        #: Consulted everywhere ``task.pinned`` routes (``_pin_home``) so
        #: a pin never points at a node that left the membership.
        self.repinned: dict[int, int] = {}
        #: pinned tasks waiting out a false death of their pinned node:
        #: they cannot move, but unlike pinned-to-crashed they are not
        #: lost — they run when the node rejoins (or are written off if
        #: it later really crashes).
        self._fence_held: dict[int, list[int]] = {}
        #: True once wave-0 roots have been injected (checkpoint/restore
        #: must not re-inject them on resume)
        self.started = False
        if machine.faults is not None:
            machine.faults.on_crash_detected(self._on_node_removed)
            machine.faults.on_node_departing(self._on_node_removed)
            machine.faults.on_node_added(self._on_node_added)
            machine.faults.transport.on_undeliverable = self._on_undeliverable
            if machine.faults.membership is not None:
                # standby ranks execute nothing until their join commits
                for w in self.workers:
                    if not machine.faults.is_member(w.rank):
                        w.enabled = False
        # keep the driver (and through it strategy/workers/wave state) in
        # the machine's checkpoint object graph — see repro.snapshot
        machine.register_snapshot_root("driver", self)
        strategy.attach(self)

    # ------------------------------------------------------------------
    def _pin_home(self, t) -> Optional[int]:
        """Effective pin target of a task: its declared pin unless a
        departure handed it off to a survivor (``repinned``)."""
        if t.pinned is None:
            return None
        return self.repinned.get(t.id, t.pinned)

    def start(self) -> None:
        """Inject wave-0 roots at their homes and let the strategy place
        them (for RIPS this immediately triggers the initial system
        phase, cf. Figure 1: 'starts with a system phase')."""
        for t in self.trace.roots:
            pin = self._pin_home(t)
            rank = pin if pin is not None else (t.home or 0)
            if self.machine.faults is not None and not self.machine.usable(rank):
                # homed/pinned outside the initial membership (a standby
                # rank): start on the lowest member instead
                rank = self.machine.alive_ranks()[0]
                if pin is not None:
                    self.repinned[t.id] = rank
            self._materialize(rank, t.id, root=True)

    def _materialize(self, rank: int, tid: int, root: bool = False) -> None:
        t = self.trace.task(tid)
        pin = self._pin_home(t)
        if pin is not None and rank != pin:
            # a pinned task spawned on a foreign node is routed home by
            # the runtime (one task message), like any SPMD "run this on
            # rank k" request
            self.created_at[tid] = pin
            self.strategy.send_tasks(rank, pin, [tid])
            return
        self.created_at[tid] = rank
        if root:
            self.strategy.place_root(rank, tid)
        else:
            self.strategy.place_child(rank, tid)

    # ------------------------------------------------------------------
    def _task_finished(self, rank: int, tid: int) -> None:
        self.executed_at[tid] = rank
        t = self.trace.task(tid)
        same_wave = [c for c in t.children if self.trace.task(c).wave == t.wave]
        later = [c for c in t.children if self.trace.task(c).wave != t.wave]
        for c in later:
            c_task = self.trace.task(c)
            pin = self._pin_home(c_task)
            hold_rank = pin if pin is not None else rank
            self._held[c_task.wave].append((hold_rank, c))
        node = self.machine.node(rank)
        if same_wave:
            # Task creation costs CPU; the children are placed (and the
            # completion hooks run) only after that cost has been paid —
            # otherwise a strategy could observe "task done, no children"
            # and wrongly conclude the node has drained.
            cost = self.config.spawn_overhead * len(same_wave)
            if self.machine.faults is not None:
                self._spawning[tid] = (rank, same_wave)
            node.exec_cpu(cost, "overhead",
                          self._finish_completion, rank, tid, same_wave)
        else:
            self._finish_completion(rank, tid, [])

    def _finish_completion(self, rank: int, tid: int, children: list[int]) -> None:
        self._spawning.pop(tid, None)
        for c in children:
            self._materialize(rank, c)
        t = self.trace.task(tid)
        self._wave_remaining[t.wave] -= 1
        self._remaining -= 1
        self.strategy.on_task_complete(rank, tid)
        self.workers[rank].try_start()
        if self._wave_remaining[t.wave] == 0 and t.wave == self.current_wave:
            self._advance_wave()

    def _advance_wave(self) -> None:
        if self._remaining == 0:
            self.finished = True
            self.strategy.on_workload_done()
            if self.machine.faults is not None:
                self.machine.faults.quiesce()
            return
        self.current_wave += 1
        wave = self.current_wave
        held = self._held[wave]
        # The wave barrier: charge one up-down tree synchronization before
        # the next wave's tasks become runnable anywhere.
        delay = modeled_barrier_latency(self.machine)
        self._barrier_pending = True
        tr = self.machine.tracer
        if tr is not None:
            tr.begin(0, "phase", f"wave-barrier:{wave}",
                     self.machine.sim.now, {"released": len(held)})
        self.machine.sim.schedule(delay, self._release_wave, wave, held)

    def _release_wave(self, wave: int, held: list[tuple[int, int]]) -> None:
        self._barrier_pending = False
        tr = self.machine.tracer
        if tr is not None:
            tr.end(0, "phase", f"wave-barrier:{wave}", self.machine.sim.now)
        for rank, tid in held:
            self.created_at[tid] = rank
            self.strategy.place_released(rank, tid)
        self.strategy.on_wave_released(wave)
        for rank, _tid in held:
            self.workers[rank].try_start()
        # A crash may have declared the entire released wave lost while the
        # barrier was in flight; nothing will complete to advance it then.
        if (not self.finished and wave == self.current_wave
                and self._wave_remaining[wave] == 0):
            self._advance_wave()

    # ------------------------------------------------------------------
    # nodes leaving and entering the usable set (crashes, false deaths,
    # joins and drains; active only with an attached fault plan)
    # ------------------------------------------------------------------
    def _rescue_rank(self, tid: int) -> int:
        """Deterministic survivor to re-home a rescued task on: its
        creator if still usable (alive and not fenced), else the lowest
        usable rank."""
        creator = self.created_at[tid]
        if creator >= 0 and self.machine.usable(creator):
            return creator
        return self.machine.alive_ranks()[0]

    def _declare_lost(self, tid: int, reason: str) -> None:
        """Write a task (and, recursively, its never-to-be-spawned
        descendants) off as lost to a fail-stop crash."""
        if tid in self._lost or self.executed_at[tid] >= 0:
            return
        self._lost.add(tid)
        self.lost_tasks.append((tid, reason))
        t = self.trace.task(tid)
        self._wave_remaining[t.wave] -= 1
        self._remaining -= 1
        tr = self.machine.tracer
        if tr is not None:
            tr.instant(max(0, self.created_at[tid]), "fault",
                       f"task-lost:{tid}", self.machine.sim.now,
                       {"reason": reason})
        for child in t.children:
            self._declare_lost(child, "orphaned")

    def _rescue_or_lose(self, tid: int) -> None:
        if tid in self._lost or self.executed_at[tid] >= 0:
            return
        t = self.trace.task(tid)
        pin = self._pin_home(t)
        if pin is not None:
            p_node = self.machine.nodes[pin]
            if p_node.crashed:
                # pinned work cannot move; this is the "provably lost" case
                self._declare_lost(tid, "pinned-to-crashed")
                return
            if p_node.fenced:
                # pinned to a node only *falsely* declared dead: hold it
                # until the node rejoins (or really crashes) — re-sending
                # now would bounce off the transport's dead-set forever
                self._fence_held.setdefault(pin, []).append(tid)
                return
            if p_node.membership != "member":
                # the pin target left (or is leaving) the membership: a
                # departure is voluntary, so the task is handed off to a
                # survivor rather than lost
                pin = self._rescue_rank(tid)
                self.repinned[tid] = pin
        dest = pin if pin is not None else self._rescue_rank(tid)
        self.strategy.place_child(dest, tid)
        self.workers[dest].try_start()

    def _on_undeliverable(self, msg: Message, tasks_carried: int) -> None:
        """A reliable send addressed a node already known dead."""
        if msg.kind == "task":
            tids, _front = msg.payload
            for tid in tids:
                self._rescue_or_lose(tid)
            self._check_progress()

    def _on_node_removed(self, rank: int) -> int:
        """``rank`` left the usable set: rescue everything it owned or
        was owed, then let the run make progress again.

        One path for every way out, told apart by the node's state at
        callback time: a crash (``crashed``), a false death declaration
        (``fenced``: the node is treated like a crashed one until it
        refutes), or a drain (neither: the member leaves voluntarily).
        The rule per task follows from that state: work pinned to a
        crashed node is lost, work pinned to a fenced node waits for the
        refutation, and work pinned to a draining node is re-pinned to
        the survivor that inherits it, so a drain loses nothing.  When a
        fenced node later really crashes the injector re-notifies, so
        the work held for its revival (``_fence_held``) is finally
        written off.  Returns the handoff count (the membership epoch
        log records it next to a drain's zero loss delta).
        """
        node = self.machine.nodes[rank]
        if not (node.crashed or node.fenced):
            self.departed_nodes.append(rank)
        elif rank not in self.crashed_nodes:
            self.crashed_nodes.append(rank)
        worker = self.workers[rank]
        worker.enabled = False
        # pinned tasks parked during a false death: normal rescue below
        # declares them lost if the node really crashed this time
        rescued = self._fence_held.pop(rank, [])
        # 1. strategy-held state (RIPS pools, collective-tree repair)
        rescued.extend(self.strategy.on_node_removed(rank))
        # 2. the node's RTE queue and in-flight task
        rescued.extend(worker.drain())
        if worker.outstanding is not None:
            rescued.append(worker.outstanding)
            worker.outstanding = None
        # 2b. completions wiped mid-spawn: the task already finished on the
        #     node (its work is done and recorded) but the removal hit
        #     before the spawn-cost CPU item materialized its children.
        #     Honor the completion and bring the children into existence on
        #     a survivor; the strategy never observes the wiped completion.
        for tid in [t for t, (r, _c) in self._spawning.items() if r == rank]:
            _r, children = self._spawning.pop(tid)
            t = self.trace.task(tid)
            self._wave_remaining[t.wave] -= 1
            self._remaining -= 1
            home = self._rescue_rank(tid)
            for c in children:
                self._materialize(home, c)
            self.workers[home].try_start()
        # 3. reliable messages to/from the node whose handler never ran
        #    (ground truth from the transport; delivered ones excluded)
        for msg, _tc in self.machine.faults.take_undeliverable(rank):
            if msg.kind == "task":
                tids, _front = msg.payload
                rescued.extend(tids)
        # 4. cross-wave children buffered on the node, not yet released:
        #    re-home the hold; they are placed at their wave's release
        count = 0
        for held in self._held:
            kept: list[tuple[int, int]] = []
            for hrank, tid in held:
                if hrank == rank and self.created_at[tid] == -1:
                    count += 1
                    pin = self._pin_home(self.trace.task(tid))
                    if pin == rank:
                        if node.crashed:
                            self._declare_lost(tid, "pinned-to-crashed")
                            continue
                        if not node.fenced:  # draining: hand the pin off
                            pin = self.repinned[tid] = self._rescue_rank(tid)
                    # a pin on a fenced node keeps its hold: released
                    # before the refutation, it waits in the disabled
                    # worker's queue
                    hrank = pin if pin is not None else self._rescue_rank(tid)
                kept.append((hrank, tid))
            held[:] = kept
        for tid in rescued:
            if tid not in self._lost and self.executed_at[tid] < 0:
                self._rescue_or_lose(tid)
                count += 1
        self._check_progress()
        return count

    def _on_node_added(self, rank: int) -> None:
        """``rank`` entered the usable set: admitted at a join epoch
        commit, or re-admitted after refuting a false death (it is still
        listed in ``crashed_nodes`` then; it provably never fail-stopped,
        so a stale entry there would let the conservation audit justify
        losses it shouldn't).  The strategy folds it into its structures
        *before* the worker is enabled, so the first task routed to the
        node finds the trees/tables already rebuilt; then the pinned
        tasks that waited out a false death are released."""
        if rank in self.crashed_nodes:
            self.crashed_nodes.remove(rank)
            self.rejoined_nodes.append(rank)
        else:
            self.joined_nodes.append(rank)
        self.strategy.on_node_added(rank)
        worker = self.workers[rank]
        worker.enabled = True
        for tid in self._fence_held.pop(rank, []):
            if tid not in self._lost and self.executed_at[tid] < 0:
                self.strategy.place_child(rank, tid)
        worker.try_start()
        self._check_progress()

    def _check_progress(self) -> None:
        """Advance the wave machinery after loss declarations: a wave (or
        the whole run) may now be complete without any task finishing."""
        if self.finished or self._barrier_pending:
            return
        if self._remaining == 0 or self._wave_remaining[self.current_wave] == 0:
            self._advance_wave()

    # ------------------------------------------------------------------
    def start_once(self) -> None:
        """Idempotent :meth:`start`: injects wave-0 roots exactly once.

        This is what lets a run proceed in slices (``machine.run(
        max_events=...)`` between checkpoints) and lets a restored driver
        resume without double-injecting the roots.
        """
        if not self.started:
            self.started = True
            self.start()

    def finish(self) -> RunMetrics:
        """Validate completion and compute the Table-I metrics."""
        if self._remaining != 0:
            raise RuntimeError(
                f"workload did not complete: {self._remaining} tasks stranded "
                f"(strategy {self.strategy.name!r} deadlocked?)"
            )
        return self._metrics()

    def _metrics(self) -> RunMetrics:
        n = self.machine.num_nodes
        T = self.machine.makespan()
        Ts = self.trace.total_work_seconds()
        task_time = self.machine.cpu_time("task")
        Th = self.machine.cpu_time("overhead") / n
        Ti = max(0.0, T - task_time / n - Th)
        nonlocal_tasks = sum(
            1
            for c, e in zip(self.created_at, self.executed_at)
            if e >= 0 and c != e  # lost tasks (e == -1) are not "nonlocal"
        )
        stats = self.machine.network.stats
        self_extra = {
            "task_messages": stats.task_messages,
            "packing_ratio": stats.packing_ratio,
        }
        if self.machine.faults is not None:
            self_extra["fault_plan"] = self.machine.faults.plan.describe()
            self_extra["fault_stats"] = self.machine.faults.stats_summary()
            self_extra["crashed_nodes"] = list(self.crashed_nodes)
            self_extra["lost_tasks"] = len(self.lost_tasks)
            self_extra["lost_task_ids"] = sorted(self._lost)
            if self.rejoined_nodes:
                self_extra["rejoined_nodes"] = list(self.rejoined_nodes)
            if self.machine.faults.membership is not None:
                self_extra["joined_nodes"] = list(self.joined_nodes)
                self_extra["departed_nodes"] = list(self.departed_nodes)
                self_extra["membership"] = (
                    self.machine.faults.membership.summary())
        m = RunMetrics(
            workload=self.trace.name,
            strategy=self.strategy.name,
            num_nodes=n,
            num_tasks=len(self.trace),
            nonlocal_tasks=nonlocal_tasks,
            T=T,
            Th=Th,
            Ti=Ti,
            efficiency=Ts / (n * T) if T > 0 else 0.0,
            Ts=Ts,
            messages=stats.messages,
            bytes=stats.bytes,
            task_hops=stats.task_hops,
            extra=self_extra,
        )
        self.strategy.finalize_metrics(m)
        return m
