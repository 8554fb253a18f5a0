"""Shard worker: one block of the mesh plus its local event engines.

A :class:`ShardWorker` owns a :class:`~repro.machine.event.Simulator`
for heterogeneous, order-sensitive local events and an
:class:`~repro.machine.event.EventLanes` batch kernel for homogeneous
storms.  Both drain against the same conservative window boundaries;
cross-shard emissions accumulate in per-destination outboxes that the
engine exchanges at each barrier.

A :class:`ShardProgram` defines what actually runs on the workers.
Programs must be defined at module level (picklable) so the same program
object drives both the inline and the one-process-per-shard engine mode;
the engine asserts the two modes produce identical results in tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.machine.event import EventLanes, Simulator

from .partition import Partition
from .window import window_end

__all__ = ["ShardWorker", "ShardProgram"]


class ShardWorker:
    """Execution context of one shard."""

    def __init__(self, shard: int, partition: Partition, delta: float) -> None:
        self.shard = shard
        self.partition = partition
        self.delta = delta
        self.sim = Simulator()
        self.lanes = EventLanes()
        self.executed = 0
        self.windows = 0
        #: per-destination outgoing batches for the current window;
        #: each entry is a float64 array of *arrival* times at the peer
        self._outbox: dict[int, list[np.ndarray]] = {}
        #: program scratch state
        self.state: dict = {}
        #: optional per-worker tracer (merged across shards by obs.export)
        self.tracer = None

    @property
    def ranks(self) -> range:
        """The mesh ranks this shard owns."""
        return self.partition.ranks(self.shard)

    def emit(self, dst_shard: int, arrival_times) -> None:
        """Queue a cross-shard batch; ``arrival_times`` are absolute
        times at the destination and must respect the conservative
        window (``>= send + delta``), which the engine validates."""
        arr = np.asarray(arrival_times, dtype=np.float64)
        if arr.size == 0:
            return
        if dst_shard == self.shard:
            raise ValueError("emit() is for cross-shard traffic only")
        self._outbox.setdefault(dst_shard, []).append(arr)

    def run_window(self, k: int) -> dict[int, list[np.ndarray]]:
        """Drain window ``k`` locally; return and reset the outbox."""
        end = window_end(k, self.delta)
        n = self.lanes.drain_window(end)
        if self.sim._peek_live() is not None:
            n += self.sim.drain_window(end)
        self.executed += n
        self.windows += 1
        out, self._outbox = self._outbox, {}
        return out

    def next_time(self) -> float:
        """Earliest locally pending due time (``inf`` when idle)."""
        t = self.lanes.next_time()
        ev = self.sim._peek_live()
        if ev is not None and ev.time < t:
            t = ev.time
        return t


class ShardProgram:
    """Base class for picklable per-shard programs.

    Lifecycle per worker: ``setup`` once, then for every window any
    received peer batches are handed to ``receive`` *before* the window
    drains, and ``finish`` produces the worker's result dict after the
    global stop condition fires.
    """

    def setup(self, worker: ShardWorker) -> None:  # pragma: no cover
        raise NotImplementedError

    def receive(self, worker: ShardWorker, src_shard: int,
                arrival_times: np.ndarray) -> None:
        """Default: ignore peer traffic."""

    def finish(self, worker: ShardWorker) -> Optional[dict]:
        """Default result: the worker's counters."""
        return {"shard": worker.shard, "executed": worker.executed,
                "windows": worker.windows}
