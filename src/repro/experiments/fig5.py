"""Figure 5: normalized quality factors.

The quality factor of algorithm ``g`` on a workload is

    (mu_opt - mu_rand) / (mu_opt - mu_g)

where ``mu_opt`` comes from Table II and ``mu_rand``/``mu_g`` from
Table I.  Randomized allocation scores exactly 1 by construction;
values above 1 mean better than random.  The paper plots three groups:
(a) exhaustive search, (b) IDA*, (c) GROMOS.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.balancers import RunMetrics
from repro.metrics import format_table
from repro.runner import RunRequest
from . import table1, table2
from .common import STRATEGY_ORDER

__all__ = ["build_requests", "quality_factor", "quality_factors", "render"]


def quality_factor(mu_opt: float, mu_rand: float, mu_g: float) -> float:
    """The paper's normalized quality factor (capped at a large value
    when an algorithm gets within rounding of the optimum)."""
    denom = mu_opt - mu_g
    if denom <= 0:
        return float("inf")
    return (mu_opt - mu_rand) / denom


def build_requests(
    num_nodes: int = 32,
    scale: Optional[str] = None,
    seed: int = 1234,
) -> list[RunRequest]:
    """Figure 5 needs both the Table-I simulations and the Table-II
    bounds, so its request list is their concatenation (the ``kind``
    field tells them apart in the results)."""
    return (
        table1.build_requests(num_nodes=num_nodes, scale=scale, seed=seed)
        + table2.build_requests(num_nodes=num_nodes, scale=scale, seed=seed)
    )


def quality_factors(
    results: Sequence[RunMetrics],
) -> dict[str, dict[str, float]]:
    """Quality factor per workload key per strategy, from mixed
    sim + optimal results.

    A simulated row finds its workload key through the display label
    that the optimal row of the same workload carries, so the mapping
    holds at either scale.  Workloads without a random run or without a
    bound are left out.
    """
    opt = {m.workload: m.efficiency for m in results if m.strategy == "optimal"}
    key_of = {m.extra["workload_label"]: m.workload
              for m in results if m.strategy == "optimal"}
    mu: dict[str, dict[str, float]] = {}
    for m in results:
        if m.strategy != "optimal":
            key = key_of.get(m.extra.get("workload_label", ""), m.workload)
            mu.setdefault(key, {})[m.strategy] = m.efficiency
    out: dict[str, dict[str, float]] = {}
    for key, per_strat in mu.items():
        rand = per_strat.get("random")
        if rand is None or key not in opt:
            continue
        out[key] = {}
        for strat, eff in per_strat.items():
            name = "RIPS" if strat.startswith("RIPS") else strat
            out[key][name] = quality_factor(opt[key], rand, eff)
    return out


def render(results: Sequence[RunMetrics]) -> str:
    """Render mixed sim + optimal runner results as the Figure-5 text."""
    rows = []
    for key, per_strat in quality_factors(results).items():
        row = {"workload": key}
        for strat in STRATEGY_ORDER:
            v = per_strat.get(strat)
            row[strat] = f"{v:.2f}" if v is not None else "-"
        rows.append(row)
    return format_table(rows, title="Figure 5: Normalized Quality Factors")
