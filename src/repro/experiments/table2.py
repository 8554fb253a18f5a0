"""Table II: optimal efficiencies for the test problems.

The optimal efficiency assumes an ideal scheduler and zero overhead;
the binding limits are task granularity, spawn chains, and wave
barriers (see :func:`repro.optimal.bounds.optimal_efficiency`).

The bound computation runs through :mod:`repro.runner` like every other
experiment (``kind="optimal"`` requests), so it shares the process pool
and the result cache with the simulation grids.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.balancers import RunMetrics
from repro.metrics import format_table, percent
from repro.runner import RunRequest
from .common import current_scale, workloads

__all__ = ["build_requests", "render"]


def build_requests(
    num_nodes: int = 32,
    scale: Optional[str] = None,
    seed: int = 1234,
) -> list[RunRequest]:
    """One ``kind="optimal"`` request per workload."""
    scale = current_scale(scale)
    return [
        RunRequest(
            workload=spec.key,
            strategy="optimal",
            num_nodes=num_nodes,
            seed=seed,
            scale=scale,
            kind="optimal",
        )
        for spec in workloads(scale)
    ]


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results as the Table-II text: the optimal
    efficiency per workload key."""
    num_nodes = results[0].num_nodes if results else 32
    rows = [
        {"workload": m.workload, "optimal efficiency": percent(m.efficiency)}
        for m in results
    ]
    return format_table(
        rows,
        title=f"Table II: Optimal Efficiencies for Test Problems ({num_nodes} processors)",
    )
