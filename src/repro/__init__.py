"""repro — Runtime Incremental Parallel Scheduling (RIPS), reproduced.

A from-scratch Python implementation of Wu & Shu, "High-Performance
Incremental Scheduling on Massively Parallel Computers — A Global
Approach" (SC'95): the RIPS runtime, the Mesh Walking Algorithm,
the comparison balancers (random / gradient / RID), the simulated
Paragon-class multicomputer they run on, the paper's three applications
(N-Queens, IDA* 15-puzzle, a synthetic GROMOS), and a harness that
regenerates every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import Machine, MeshTopology, RIPS, Session
>>> from repro.apps import nqueens_trace
>>> trace = nqueens_trace(10, split_depth=3)
>>> machine = Machine(MeshTopology(4, 4), seed=42)
>>> metrics = Session.from_parts(trace, RIPS("lazy", "any"), machine).run()
>>> round(metrics.efficiency, 3)
0.268

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .balancers import (
    Driver,
    ExecutionConfig,
    GradientModel,
    RandomAllocation,
    ReceiverInitiatedDiffusion,
    RunMetrics,
    SenderInitiatedDiffusion,
    Strategy,
)
from .core import (
    GlobalPolicy,
    LocalPolicy,
    MeshWalkPlanner,
    OptimalPlanner,
    RIPS,
    TreeWalkPlanner,
    mwa_schedule,
)
from .machine import (
    HypercubeTopology,
    LatencyModel,
    Machine,
    MeshTopology,
    Simulator,
    Topology,
    TorusTopology,
    TreeTopology,
    make_topology,
    mesh_shape_for,
)
from .optimal import min_nonlocal_tasks, optimal_efficiency, optimal_redistribution
from .session import Session
from .tasks import TraceTask, WorkloadTrace

__version__ = "1.0.0"

__all__ = [
    "Driver",
    "ExecutionConfig",
    "GlobalPolicy",
    "GradientModel",
    "HypercubeTopology",
    "LatencyModel",
    "LocalPolicy",
    "Machine",
    "MeshTopology",
    "MeshWalkPlanner",
    "OptimalPlanner",
    "RIPS",
    "RandomAllocation",
    "ReceiverInitiatedDiffusion",
    "RunMetrics",
    "SenderInitiatedDiffusion",
    "Session",
    "Simulator",
    "Strategy",
    "Topology",
    "TorusTopology",
    "TraceTask",
    "TreeTopology",
    "TreeWalkPlanner",
    "WorkloadTrace",
    "make_topology",
    "mesh_shape_for",
    "min_nonlocal_tasks",
    "mwa_schedule",
    "optimal_efficiency",
    "optimal_redistribution",
    "__version__",
]
