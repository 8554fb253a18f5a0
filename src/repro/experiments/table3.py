"""Table III: speedup comparison on 64 and 128 processors.

The paper scales the three largest workloads (15-Queens, IDA* config
#3, GROMOS 16 A) to 64 and 128 processors and reports speedups
``Ts / Tp`` per strategy.  RID's update factor is raised to 0.7 for
IDA* on the larger machines, as the paper describes
(:mod:`repro.experiments.common` encodes that tuning).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.balancers import RunMetrics
from repro.metrics import format_table
from repro.runner import RunRequest
from .common import STRATEGY_ORDER, current_scale, workloads

__all__ = ["TABLE3_WORKLOADS", "build_requests", "render"]

#: workload keys of Table III at paper scale (the last of each group)
TABLE3_WORKLOADS = {
    "paper": ("queens-15", "ida-3", "gromos-16"),
    "small": ("queens-12", "ida-3", "gromos-16"),
}


def build_requests(
    num_nodes_list: Sequence[int] = (64, 128),
    scale: Optional[str] = None,
    strategies: Sequence[str] = STRATEGY_ORDER,
    seed: int = 1234,
) -> list[RunRequest]:
    """The Table-III grid as runner requests."""
    scale = current_scale(scale)
    keys = TABLE3_WORKLOADS[scale]
    return [
        RunRequest(
            workload=spec.key,
            strategy=strat,
            num_nodes=n,
            seed=seed,
            scale=scale,
        )
        for spec in workloads(scale)
        if spec.key in keys
        for n in num_nodes_list
        for strat in strategies
    ]


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results as the Table-III text: rows are (workload,
    strategy), columns the machine sizes."""
    sizes = sorted({m.num_nodes for m in results})
    cell: dict[tuple[str, str], dict[int, float]] = {}
    for m in results:
        label = m.extra.get("workload_label", m.workload)
        cell.setdefault((label, m.strategy), {})[m.num_nodes] = m.speedup
    rows = []
    for (label, strat), per_n in cell.items():
        row = {"workload": label, "strategy": strat}
        for n in sizes:
            v = per_n.get(n)
            row[f"speedup@{n}"] = f"{v:.1f}" if v is not None else "-"
        rows.append(row)
    return format_table(
        rows, title="Table III: Speedup Comparison on 64 and 128 Processors"
    )
