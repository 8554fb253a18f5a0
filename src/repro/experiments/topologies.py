"""Cross-topology experiment: RIPS beyond the mesh.

Section 5 of the paper: "RIPS is a general method and applies to
different topologies, such as the tree, mesh, and hypercube", each with
its own optimal-or-near-optimal parallel scheduling algorithm (MWA for
the mesh, the tree-walking algorithm of [25], a hypercube variant in
[32]).  This experiment runs the same workload under RIPS on a mesh, a
binary tree, a hypercube, and a crossbar, pairing each interconnect
with its planner, and reports the Table-I metrics side by side —
together with the dimension-exchange planner on the hypercube as the
redundant-communication strawman the paper criticizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.balancers import RunMetrics
from repro.core.schedulers import (
    DimensionExchangePlanner,
    MeshWalkPlanner,
    OptimalPlanner,
    Planner,
    TreeWalkPlanner,
)
from repro.machine import (
    FullyConnectedTopology,
    HypercubeTopology,
    MeshTopology,
    Topology,
    TreeTopology,
    mesh_shape_for,
)
from repro.metrics import format_table, percent, seconds
from repro.runner import RunRequest
from .common import current_scale

__all__ = ["TopologyCase", "build_requests", "render", "topology_cases"]


@dataclass(frozen=True)
class TopologyCase:
    """One interconnect + its paired system-phase planner.

    :meth:`repro.session.Session.from_request` builds a case's run from
    a request's ``topology_case`` name.
    """

    name: str
    make_topology: Callable[[int], Topology]
    make_planner: Callable[[Topology], Planner]


def topology_cases() -> list[TopologyCase]:
    """The paper's three topologies + a crossbar reference + DEM."""
    return [
        TopologyCase(
            "mesh+MWA",
            lambda n: MeshTopology(*mesh_shape_for(n)),
            lambda t: MeshWalkPlanner(t),
        ),
        TopologyCase(
            "tree+walk",
            lambda n: TreeTopology(n, arity=2),
            lambda t: TreeWalkPlanner(t),
        ),
        TopologyCase(
            "hypercube+DEM",
            lambda n: HypercubeTopology((n - 1).bit_length()),
            lambda t: DimensionExchangePlanner(t),
        ),
        TopologyCase(
            "hypercube+optimal",
            lambda n: HypercubeTopology((n - 1).bit_length()),
            lambda t: OptimalPlanner(t),
        ),
        TopologyCase(
            "crossbar+optimal",
            lambda n: FullyConnectedTopology(n),
            lambda t: OptimalPlanner(t),
        ),
    ]


def build_requests(
    workload_key: str,
    num_nodes: int = 32,
    case_names: Optional[Sequence[str]] = None,
    seed: int = 77,
    scale: Optional[str] = None,
) -> list[RunRequest]:
    """The cross-topology comparison as runner requests (one per case).

    ``num_nodes`` must be a power of two so the hypercube cases match
    the other topologies' node count.
    """
    if num_nodes & (num_nodes - 1):
        raise ValueError("num_nodes must be a power of two for this comparison")
    scale = current_scale(scale)
    names = (
        list(case_names)
        if case_names is not None
        else [c.name for c in topology_cases()]
    )
    return [
        RunRequest(
            workload=workload_key,
            strategy="RIPS",
            num_nodes=num_nodes,
            seed=seed,
            scale=scale,
            topology_case=name,
        )
        for name in names
    ]


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results as the topology comparison table: the
    Table-I columns side by side per topology case."""
    rows = [
        {
            "case": m.extra.get("topology_case", "?"),
            "nonlocal": m.nonlocal_tasks,
            "Th": seconds(m.Th),
            "Ti": seconds(m.Ti),
            "T": seconds(m.T),
            "mu": percent(m.efficiency),
            "phases": m.system_phases or "-",
        }
        for m in results
    ]
    first = results[0] if results else None
    title = (
        f"RIPS across topologies: {first.workload} on {first.num_nodes} nodes"
        if first is not None
        else "RIPS across topologies"
    )
    return format_table(rows, title=title)
