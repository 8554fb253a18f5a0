"""Table I: comparison of scheduling algorithms on 32 processors.

For each of the nine workloads and each of the four strategies (Random,
Gradient, RID, RIPS with the ANY-Lazy policy) the harness reports the
paper's columns: total tasks, non-local tasks, overhead time Th, idle
time Ti, execution time T, and efficiency mu.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.balancers import RunMetrics
from repro.metrics import format_table, percent, seconds
from repro.runner import RunRequest
from .common import STRATEGY_ORDER, current_scale, workloads

__all__ = ["build_requests", "render", "table1_rows"]


def build_requests(
    num_nodes: int = 32,
    scale: Optional[str] = None,
    strategies: Sequence[str] = STRATEGY_ORDER,
    workload_keys: Optional[Sequence[str]] = None,
    seed: int = 1234,
) -> list[RunRequest]:
    """The (possibly restricted) Table-I grid as runner requests, in the
    paper's row order: workloads outer, strategies inner."""
    scale = current_scale(scale)
    return [
        RunRequest(
            workload=spec.key,
            strategy=strat,
            num_nodes=num_nodes,
            seed=seed,
            scale=scale,
        )
        for spec in workloads(scale)
        if workload_keys is None or spec.key in workload_keys
        for strat in strategies
    ]


def table1_rows(metrics: Sequence[RunMetrics]) -> list[dict]:
    """Flatten metrics into the paper's Table-I row layout."""
    return [
        {
            "workload": m.extra.get("workload_label", m.workload),
            "strategy": m.strategy,
            "tasks": m.num_tasks,
            "nonlocal": m.nonlocal_tasks,
            "Th": seconds(m.Th),
            "Ti": seconds(m.Ti),
            "T": seconds(m.T),
            "mu": percent(m.efficiency),
        }
        for m in metrics
    ]


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results (in request order) as the Table-I text."""
    num_nodes = results[0].num_nodes if results else 32
    return format_table(
        table1_rows(results),
        title=f"Table I: Comparison of Scheduling Algorithms on {num_nodes} Processors",
    )
