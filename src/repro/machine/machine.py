"""The simulated multicomputer: topology + network + nodes + clock.

:class:`Machine` is the facade everything else builds on.  It owns the
simulator, constructs the node array and the network, wires message
delivery to node dispatch, and carries a seeded RNG so that runs are
reproducible.

This is the substitution for the paper's Intel Paragon (see DESIGN.md §2):
a deterministic, instrumentable machine whose cost knobs are calibrated to
the paper's reported anatomy rather than a physical testbed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .event import Simulator
from .message import Message
from .network import ContentionNetwork, IdealNetwork, LatencyModel, PARAGON_LIKE
from .node import Node
from .topology import Topology, make_topology

__all__ = ["Machine", "PARAGON_LIKE"]


class Machine:
    """A distributed-memory multicomputer simulation.

    Parameters
    ----------
    topology:
        A :class:`~repro.machine.topology.Topology`, or a string kind
        (``"mesh"``, ``"hypercube"``, ...) combined with ``num_nodes``.
    latency:
        Postal-model cost parameters; defaults to the Paragon-like
        calibration.
    contention:
        If True, use the store-and-forward contention network instead of
        the ideal wormhole network.
    seed:
        Seed for the machine RNG (used by randomized protocols).
    faults:
        Optional :class:`repro.faults.FaultPlan`; ``None`` (or a null
        plan) leaves the machine entirely fault-free.
    """

    def __init__(
        self,
        topology: Topology | str,
        num_nodes: Optional[int] = None,
        latency: LatencyModel = PARAGON_LIKE,
        contention: bool = False,
        seed: Optional[int] = None,
        tracer=None,
        faults=None,
    ) -> None:
        if isinstance(topology, str):
            if num_nodes is None:
                raise ValueError("num_nodes required when topology is a kind string")
            topology = make_topology(topology, num_nodes)
        self.topology = topology
        self.latency = latency
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        net_cls = ContentionNetwork if contention else IdealNetwork
        self.network = net_cls(self.sim, topology, latency, self._deliver)
        self.nodes = [Node(rank, self) for rank in range(topology.num_nodes)]
        #: attached observability tracer (None = untraced; see repro.obs)
        self.tracer = None
        #: attached fault injector (None = fault-free; see repro.faults)
        self.faults = None
        #: objects that must survive checkpoint/restore alongside the
        #: machine (the driver, and through it strategy/workers); see
        #: repro.snapshot.  A plain dict: pickled with the machine.
        self._snapshot_roots: dict[str, object] = {}
        if tracer is not None:
            self.attach_tracer(tracer)
        if faults is not None:
            self.attach_faults(faults)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def node(self, rank: int) -> Node:
        return self.nodes[rank]

    def attach_tracer(self, tracer) -> None:
        """Thread ``tracer`` (see :class:`repro.obs.Tracer`) through the
        simulator, network, and every node.  Pass ``None`` to detach; the
        untraced machine pays no per-event cost.
        """
        self.tracer = tracer
        self.sim.attach_tracer(tracer)
        self.network.tracer = tracer
        for node in self.nodes:
            node.tracer = tracer

    def attach_faults(self, plan) -> None:
        """Install a :class:`repro.faults.FaultPlan` on this machine.

        A ``None`` or null plan installs nothing at all: the fault-free
        machine takes exactly the pre-fault code paths (``node.faults`` is
        ``None``, the network is unwrapped), so zero-fault runs are
        bit-identical to a build without this subsystem.
        """
        if plan is None or plan.is_null():
            return
        if self.faults is not None:
            raise RuntimeError("faults already attached")
        from repro.faults.inject import FaultInjector

        self.faults = FaultInjector(self, plan)
        for node in self.nodes:
            node.faults = self.faults

    # ------------------------------------------------------------------
    # checkpoint / restore (see repro.snapshot)
    # ------------------------------------------------------------------
    def register_snapshot_root(self, name: str, obj: object) -> None:
        """Keep ``obj`` in this machine's checkpoint object graph.

        The :class:`~repro.balancers.base.Driver` registers itself here,
        which transitively pins the strategy, workers, and wave state —
        one pickle memo, so identity between the event heap's callbacks
        and the restored objects is preserved.
        """
        self._snapshot_roots[name] = obj

    def snapshot_root(self, name: str):
        """A registered root (e.g. ``"driver"``), or None."""
        return self._snapshot_roots.get(name)

    def checkpoint(self, meta: Optional[dict] = None):
        """Freeze the complete machine state into a
        :class:`repro.snapshot.Snapshot`.  The machine keeps running."""
        from repro.snapshot import capture

        return capture(self, meta)

    @classmethod
    def restore(cls, snapshot) -> "Machine":
        """Rehydrate a machine from :meth:`checkpoint` output.

        Restore-then-run is bit-identical to an uninterrupted run; see
        :mod:`repro.snapshot` for the guarantees and the message-id
        fast-forward that makes cross-process restores safe.
        """
        from repro.snapshot import restore

        return restore(snapshot)

    def usable(self, rank: int) -> bool:
        """Can ``rank`` take part in scheduling right now?  Not
        fail-stopped, not fenced (a fenced node is falsely declared dead;
        until it refutes, every protocol must treat it exactly like a
        crash), and a full member of the current membership epoch
        (standby/joining/draining/departed nodes never receive tasks,
        stand for election or count in a quorum)."""
        n = self.nodes[rank]
        return not n.crashed and not n.fenced and n.membership == "member"

    def alive_ranks(self) -> list[int]:
        """The :meth:`usable` ranks, ascending."""
        return [r for r in range(self.num_nodes) if self.usable(r)]

    def _deliver(self, msg: Message) -> None:
        tr = self.tracer
        if tr is not None:
            tr.instant(msg.dest, "net", f"recv:{msg.kind}", self.sim.now,
                       {"src": msg.src, "size": msg.size})
        self.nodes[msg.dest].dispatch(msg)

    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> None:
        """Run the simulation until its event queue drains, or for at most
        ``max_events`` more events (see :meth:`Simulator.run`)."""
        self.sim.run(max_events)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Wall-clock of the run: last CPU activity over all nodes."""
        return max((n.last_active for n in self.nodes), default=0.0)

    def cpu_time(self, category: str) -> float:
        """Total CPU seconds in a category, summed over nodes."""
        return sum(n.cpu_time[category] for n in self.nodes)

    def per_node_idle(self, horizon: Optional[float] = None) -> list[float]:
        """Idle seconds per node within ``horizon`` (default: makespan)."""
        if horizon is None:
            horizon = self.makespan()
        return [
            max(0.0, horizon - sum(n.cpu_time.values())) for n in self.nodes
        ]

    def __repr__(self) -> str:
        return (
            f"Machine({self.topology!r}, latency={self.latency}, "
            f"t={self.sim.now:.6f})"
        )
