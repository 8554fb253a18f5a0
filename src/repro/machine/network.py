"""Network cost models and message transport.

The Paragon of the paper is a wormhole-routed 2-D mesh.  We provide two
transports:

* :class:`IdealNetwork` — each message is delivered in one simulator event
  after a latency computed from the hop count and size.  No contention.
  This is the default; it is what the paper's own step-count analysis
  (e.g. "3(n1+n2) communication steps" for MWA) assumes.
* :class:`ContentionNetwork` — store-and-forward, hop by hop, with each
  directed link a FIFO resource.  Used for ablations showing that MWA's
  column/row flows are contention-friendly.

Latency model
-------------
``LatencyModel`` exposes the classic postal parameters:

* ``software_overhead`` — CPU time charged to the *sender and receiver*
  per message (handled by :class:`repro.machine.node.Node`);
* ``per_hop`` — switch/channel latency per hop;
* ``per_byte`` — inverse bandwidth.

Wormhole (ideal) delivery time: ``per_hop * hops + per_byte * size``.
Store-and-forward per-hop occupancy: ``per_hop + per_byte * size``.

Defaults are calibrated to the paper's anatomy: "each communication step
to migrate tasks takes about 1 ms" for a packed multi-task message
crossing the 8x4 mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .message import Message
from .topology import Topology, hop_table

if TYPE_CHECKING:  # pragma: no cover
    from .event import Simulator

__all__ = [
    "LatencyModel",
    "IdealNetwork",
    "ContentionNetwork",
    "NetworkStats",
    "PARAGON_LIKE",
]


@dataclass(frozen=True)
class LatencyModel:
    """Postal-model parameters (seconds, seconds/hop, seconds/byte).

    ``per_byte`` is wire occupancy (inverse bandwidth); ``per_byte_cpu``
    is the memcpy/packing cost charged to the *CPU* of both endpoints —
    on a mid-90s multicomputer, moving a task's data through the NIC
    costs processor time, which is a large part of why bad locality
    shows up as overhead (Th) in Table I.
    """

    software_overhead: float = 20e-6
    per_hop: float = 40e-6
    per_byte: float = 0.02e-6
    per_byte_cpu: float = 0.01e-6

    def __post_init__(self) -> None:
        for name in ("software_overhead", "per_hop", "per_byte", "per_byte_cpu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def wormhole_latency(self, hops: int, size: int) -> float:
        """End-to-end wire latency, distance-insensitive bandwidth term."""
        return self.per_hop * max(hops, 1) + self.per_byte * size

    def hop_occupancy(self, size: int) -> float:
        """Time a store-and-forward message occupies one link."""
        return self.per_hop + self.per_byte * size

    def endpoint_cpu(self, size: int) -> float:
        """CPU time charged at the sender and again at the receiver."""
        return self.software_overhead + self.per_byte_cpu * size


#: LatencyModel tuned so a packed migration message (~100 task descriptors)
#: crossing one communication step costs ~1 ms, matching Section 5.
PARAGON_LIKE = LatencyModel(
    software_overhead=50e-6, per_hop=40e-6, per_byte=0.13e-6,
    per_byte_cpu=0.05e-6,
)


@dataclass
class NetworkStats:
    """Aggregate transport counters (one per network instance)."""

    messages: int = 0
    bytes: int = 0
    task_hops: int = 0  # sum over messages of tasks_carried * hops
    message_hops: int = 0
    task_messages: int = 0  # messages that carried at least one task
    tasks_carried: int = 0  # total tasks shipped (for packing ratios)
    #: per-directed-link traversal counts (contention network only; the
    #: ideal wormhole network does not model individual links)
    link_uses: dict = field(default_factory=dict)

    def record(self, msg: Message, hops: int, tasks_carried: int = 0) -> None:
        self.messages += 1
        self.bytes += msg.size
        self.message_hops += hops
        self.task_hops += tasks_carried * hops
        if tasks_carried > 0:
            self.task_messages += 1
            self.tasks_carried += tasks_carried

    def record_link(self, link: tuple) -> None:
        """Count one message traversal of directed link ``(u, v)``."""
        self.link_uses[link] = self.link_uses.get(link, 0) + 1

    @property
    def links_used(self) -> int:
        """Number of distinct directed links that carried any traffic."""
        return len(self.link_uses)

    @property
    def packing_ratio(self) -> float:
        """Average tasks per migration message (>= 1 when packing pays)."""
        return self.tasks_carried / self.task_messages if self.task_messages else 0.0


class IdealNetwork:
    """Contention-free wormhole network.

    ``deliver`` is a callback ``(msg) -> None`` installed by the machine;
    it hands the message to the destination node's CPU queue.

    Hop counts come from the process-wide :func:`hop_table` of the
    topology's shape.  The table is a memo, not machine state: it is
    left out of the pickled state and looked up again on restore.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        latency: LatencyModel,
        deliver: Callable[[Message], None],
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self._deliver = deliver
        self.stats = NetworkStats()
        #: observability: set by Machine.attach_tracer; None = no tracing
        self.tracer = None
        self._hops = hop_table(topology)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_hops"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._hops = hop_table(self.topology)

    def transmit(self, msg: Message, tasks_carried: int = 0) -> None:
        """Inject ``msg``; it arrives after the modeled wire latency."""
        src = msg.src
        dest = msg.dest
        if src == dest:
            # Loopback: deliver after a negligible but nonzero delay so the
            # event ordering matches a remote send (handler never reenters).
            self.sim.schedule(0.0, self._deliver, msg)
            return
        table = self._hops
        n = len(table)
        if not (0 <= src < n and 0 <= dest < n):
            # a negative rank would wrap in the table: raise check_rank's error
            self.topology.check_rank(src)
            self.topology.check_rank(dest)
        hops = table[src][dest]
        self.stats.record(msg, hops, tasks_carried)
        tr = self.tracer
        if tr is not None:
            tr.instant(msg.src, "net", f"send:{msg.kind}", self.sim.now,
                       {"dest": msg.dest, "size": msg.size, "hops": hops,
                        "tasks": tasks_carried})
        self.sim.schedule(self.latency.wormhole_latency(hops, msg.size),
                          self._deliver, msg)


class ContentionNetwork:
    """Store-and-forward network with FIFO links.

    Each directed link ``(u, v)`` is a serial resource: a message occupies
    it for ``latency.hop_occupancy(size)`` seconds.  Messages follow the
    topology's deterministic route; queueing happens per link.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        latency: LatencyModel,
        deliver: Callable[[Message], None],
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self._deliver = deliver
        self.stats = NetworkStats()
        #: observability: set by Machine.attach_tracer; None = no tracing
        self.tracer = None
        # earliest free time of each directed link
        self._link_free: dict[tuple[int, int], float] = {}
        self._transmits_since_prune = 0

    #: prune the link-free table every this many transmissions
    _PRUNE_INTERVAL = 256

    def transmit(self, msg: Message, tasks_carried: int = 0) -> None:
        if msg.src == msg.dest:
            self.sim.schedule(0.0, self._deliver, msg)
            return
        path = self.topology.route(msg.src, msg.dest)
        self.stats.record(msg, len(path) - 1, tasks_carried)
        occupancy = self.latency.hop_occupancy(msg.size)
        t = self.sim.now
        for u, v in zip(path, path[1:]):
            link = (u, v)
            start = max(t, self._link_free.get(link, 0.0))
            t = start + occupancy
            self._link_free[link] = t
            self.stats.record_link(link)
        tr = self.tracer
        if tr is not None:
            tr.instant(msg.src, "net", f"send:{msg.kind}", self.sim.now,
                       {"dest": msg.dest, "size": msg.size,
                        "hops": len(path) - 1, "tasks": tasks_carried})
            # Link occupancy pressure: how far the busiest link's queue
            # extends beyond the current instant.
            tr.counter(msg.src, "net", "link_backlog", self.sim.now,
                       max(0.0, t - self.sim.now
                           - occupancy * (len(path) - 1)))
        self.sim.schedule_at(t, self._deliver, msg)
        self._transmits_since_prune += 1
        if self._transmits_since_prune >= self._PRUNE_INTERVAL:
            self._prune_links()

    def _prune_links(self) -> None:
        """Drop link-free entries already in the past.

        An entry whose free time is ``<= sim.now`` can never delay a future
        message (``start = max(t, free)`` with ``t >= sim.now``), so the
        table would otherwise grow monotonically with every link ever
        touched over a long run.
        """
        now = self.sim.now
        self._link_free = {
            link: free for link, free in self._link_free.items() if free > now
        }
        self._transmits_since_prune = 0

    def busiest_link_queue(self) -> float:
        """Latest link-free horizon minus now (diagnostic)."""
        if not self._link_free:
            return 0.0
        return max(0.0, max(self._link_free.values()) - self.sim.now)
