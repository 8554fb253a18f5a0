"""Figure 4: normalized communication cost of MWA vs the optimal.

For mesh sizes 8..256 and average per-node weights 2..100, generate
random load vectors, run the Mesh Walking Algorithm and the min-cost-
flow optimum toward the *same* quota vector, and report

    (C_MWA - C_OPT) / C_OPT

averaged over ``cases`` random test cases — exactly the measure of the
paper's Figure 4 (a) for 8/16/32 processors and (b) for 64/128/256.

:func:`fig4_point` is the pure per-cell computation; the grid routes
through :mod:`repro.runner` (``kind="fig4"`` requests), so points fan
out across cores and land in the shared result cache like every other
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.balancers import RunMetrics
from repro.core.mwa import mwa_schedule
from repro.machine.topology import MeshTopology, mesh_shape_for
from repro.metrics import format_series
from repro.optimal.schedule import optimal_redistribution
from repro.runner import RunRequest

__all__ = [
    "Fig4Point",
    "PAPER_SIZES",
    "PAPER_WEIGHTS",
    "build_requests",
    "fig4_point",
    "render",
]

PAPER_SIZES = (8, 16, 32, 64, 128, 256)
PAPER_WEIGHTS = (2, 5, 10, 20, 50, 100)


@dataclass
class Fig4Point:
    """One data point of Figure 4."""

    num_nodes: int
    weight: int
    cases: int
    normalized_cost: float  # mean of (C_MWA - C_OPT)/C_OPT
    mean_cost_mwa: float
    mean_cost_opt: float


def _random_loads(
    rng: np.random.Generator, n: int, weight: int
) -> np.ndarray:
    """The paper's test set: random loads with the given mean.

    Uniform integers on [0, 2*weight] (mean = weight); cases where the
    optimum is 0 (already balanced) are skipped by the caller since the
    normalized measure is undefined there.
    """
    return rng.integers(0, 2 * weight + 1, size=n).astype(np.int64)


def fig4_point(
    num_nodes: int, weight: int, cases: int = 100, seed: int = 7
) -> Fig4Point:
    """Average normalized MWA cost for one (mesh size, weight) cell."""
    n1, n2 = mesh_shape_for(num_nodes)
    mesh = MeshTopology(n1, n2)
    rng = np.random.default_rng(seed + num_nodes * 1000 + weight)
    total_ratio = 0.0
    total_mwa = 0
    total_opt = 0
    done = 0
    attempts = 0
    while done < cases:
        attempts += 1
        if attempts > 50 * cases:  # pragma: no cover - defensive
            raise RuntimeError("could not generate enough unbalanced cases")
        w = _random_loads(rng, num_nodes, weight)
        res = mwa_schedule(w.reshape(n1, n2))
        opt = optimal_redistribution(mesh, w, res.quotas.ravel())
        if opt.cost == 0:
            continue
        total_ratio += (res.cost - opt.cost) / opt.cost
        total_mwa += res.cost
        total_opt += opt.cost
        done += 1
    return Fig4Point(
        num_nodes=num_nodes,
        weight=weight,
        cases=cases,
        normalized_cost=total_ratio / cases,
        mean_cost_mwa=total_mwa / cases,
        mean_cost_opt=total_opt / cases,
    )


def build_requests(
    sizes: Sequence[int] = PAPER_SIZES,
    weights: Sequence[int] = PAPER_WEIGHTS,
    cases: int = 100,
    seed: int = 7,
) -> list[RunRequest]:
    """The Figure-4 grid as runner requests (one per size x weight)."""
    return [
        RunRequest(
            workload="fig4",
            strategy="MWA",
            num_nodes=int(n),
            seed=seed,
            kind="fig4",
            params=(("weight", int(w)), ("cases", int(cases))),
        )
        for n in sizes
        for w in weights
    ]


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results as the Figure-4 normalized-cost series, one
    line per mesh size in request order."""
    by_n: dict[int, list[RunMetrics]] = {}
    for m in results:
        by_n.setdefault(m.num_nodes, []).append(m)
    cases = results[0].extra["cases"] if results else 0
    lines = [
        "Figure 4: normalized communication cost of MWA, "
        f"{cases} cases per point"
    ]
    for n, ms in by_n.items():
        lines.append(format_series(
            f"{n} procs",
            [m.extra["weight"] for m in ms],
            [m.extra["normalized_cost"] for m in ms],
        ))
    return "\n".join(lines)
