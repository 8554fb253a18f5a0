"""Simulated distributed-memory multicomputer (the Paragon substitute).

Public surface:

* :class:`~repro.machine.machine.Machine` — the facade;
* :class:`~repro.machine.event.Simulator` — the discrete-event engine;
* topologies (:class:`MeshTopology`, :class:`HypercubeTopology`,
  :class:`TreeTopology`, :class:`TorusTopology`, ...);
* :class:`~repro.machine.network.LatencyModel` and the two transports;
* collectives used by the schedulers.
"""

from .event import EventHandle, SimulationError, Simulator
from .machine import Machine
from .message import HEADER_BYTES, TASK_DESCRIPTOR_BYTES, Message, task_message_bytes
from .network import (
    ContentionNetwork,
    IdealNetwork,
    LatencyModel,
    NetworkStats,
    PARAGON_LIKE,
)
from .node import Node
from .topology import (
    FullyConnectedTopology,
    HypercubeTopology,
    MeshTopology,
    Topology,
    TorusTopology,
    TreeTopology,
    make_topology,
    mesh_shape_for,
)
from .collectives import BinomialBroadcast, GatherTree, modeled_barrier_latency

__all__ = [
    "BinomialBroadcast",
    "ContentionNetwork",
    "EventHandle",
    "FullyConnectedTopology",
    "GatherTree",
    "HEADER_BYTES",
    "HypercubeTopology",
    "IdealNetwork",
    "LatencyModel",
    "Machine",
    "MeshTopology",
    "Message",
    "NetworkStats",
    "Node",
    "PARAGON_LIKE",
    "SimulationError",
    "Simulator",
    "TASK_DESCRIPTOR_BYTES",
    "Topology",
    "TorusTopology",
    "TreeTopology",
    "make_topology",
    "mesh_shape_for",
    "modeled_barrier_latency",
    "task_message_bytes",
]
