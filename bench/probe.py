"""Host-speed probe: a fixed pure-Python discrete-event loop.

The benchmark runs on shared hosts whose speed swings by tens of percent
within seconds.  The probe is timed between cells; a cell's time divided
by the host's slowdown at that moment (the mean of the probes on either
side, over ``NOMINAL_S``) is its time at nominal host speed.  The probe
uses only the standard library and the benchmark never changes it, so a
change to the program under test cannot move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

__all__ = ["NOMINAL_S", "probe"]

#: the probe's time on an unloaded reference host (2-vCPU Xeon VM,
#: CPython 3.11); slowdowns are measured against it
NOMINAL_S = 0.007

_NODES = 16
_EVENTS = 10_000


class _Node:
    __slots__ = ("queue", "done")

    def __init__(self) -> None:
        self.queue: list[int] = []
        self.done = 0


def _loop() -> int:
    nodes = [_Node() for _ in range(_NODES)]
    heap = [(0.0, 0, 0)]
    seq = 1
    seen: dict[int, int] = {}
    while heap and seq < _EVENTS:
        t, _s, rank = heapq.heappop(heap)
        node = nodes[rank]
        node.done += 1
        node.queue.append(seq)
        if len(node.queue) > 4:
            node.queue.pop(0)
        seen[rank] = seen.get(rank, 0) + 1
        for dest in ((rank * 5 + 1) % _NODES, (rank + seq) % _NODES):
            heapq.heappush(heap, (t + (seq * 7919 % 101) * 1e-6, seq, dest))
            seq += 1
    return sum(seen.values())


def probe() -> float:
    """Seconds the fixed loop takes on this host right now."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0
