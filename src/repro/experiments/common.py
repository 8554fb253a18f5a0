"""Shared infrastructure of the experiment harness.

Defines the paper's nine workloads and four scheduling strategies, with
two scales:

* ``paper`` — the evaluation-section sizes (13/14/15-Queens, IDA*
  configurations #1–#3, GROMOS at 8/12/16 Å).  Trace generation for the
  big ones takes real CPU (15-Queens ≈ 10 s, IDA* #3 ≈ 4 s) but is
  disk-cached.
* ``small`` — reduced sizes for CI/tests (10/11/12-Queens, easier
  puzzle instances, a thinner molecule).  Same structure, same code
  paths, a few seconds end to end.

Select with the ``REPRO_SCALE`` environment variable or the ``scale=``
argument; the default is ``small`` so that tests and benchmarks are
self-contained, while ``REPRO_SCALE=paper`` regenerates the full tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.apps import gromos_trace, idastar_trace, nqueens_trace
from repro.apps.idastar import IDAStarConfig, PAPER_CONFIGS
from repro.balancers import (
    ExecutionConfig,
    GradientModel,
    RandomAllocation,
    ReceiverInitiatedDiffusion,
    RunMetrics,
)
from repro.core import RIPS
from repro.machine import Machine, MeshTopology, mesh_shape_for
from repro.tasks.trace import WorkloadTrace

__all__ = [
    "WorkloadSpec",
    "current_scale",
    "workloads",
    "workload",
    "strategy_factories",
    "make_machine",
    "run_workload",
    "STRATEGY_ORDER",
]

STRATEGY_ORDER = ("random", "gradient", "RID", "RIPS")

#: RID's load-update factor per workload class, as tuned in the paper
#: (u = 0.4 everywhere on 32 nodes; 0.7 for IDA* on 64/128 nodes).
RID_UPDATE_FACTOR_DEFAULT = 0.4
RID_UPDATE_FACTOR_IDA_LARGE = 0.7


@dataclass(frozen=True)
class WorkloadSpec:
    """One of the paper's nine evaluation workloads.

    ``build(num_nodes)`` produces the trace; the machine size matters
    only to GROMOS (its SPMD block pre-placement is per machine size),
    the search workloads ignore it.
    """

    key: str  # e.g. "queens-15", "ida-3", "gromos-16"
    label: str  # display label matching the paper's rows
    build: Callable[[int], WorkloadTrace]
    kind: str  # "queens" | "ida" | "gromos"


def current_scale(scale: str | None = None) -> str:
    scale = scale or os.environ.get("REPRO_SCALE", "small")
    if scale not in ("paper", "small"):
        raise ValueError(f"unknown scale {scale!r}")
    return scale


def _queens_sizes(scale: str) -> Sequence[tuple[int, int]]:
    # (n, split_depth)
    if scale == "paper":
        return [(13, 4), (14, 4), (15, 4)]
    return [(10, 3), (11, 3), (12, 3)]


def _ida_configs(scale: str) -> dict[int, IDAStarConfig]:
    if scale == "paper":
        return PAPER_CONFIGS
    return {
        1: IDAStarConfig(walk_steps=40, seed=11, split_budget=200),
        2: IDAStarConfig(walk_steps=44, seed=23, split_budget=200),
        3: IDAStarConfig(walk_steps=52, seed=11, split_budget=200),
    }


def _gromos_kwargs(scale: str) -> dict:
    if scale == "paper":
        return {}
    return {"n_atoms": 2000, "n_groups": 1400, "seed": 2026}


def workloads(scale: str | None = None) -> list[WorkloadSpec]:
    """The nine Table-I workloads at the requested scale."""
    scale = current_scale(scale)
    specs: list[WorkloadSpec] = []
    for (n, depth) in _queens_sizes(scale):
        specs.append(
            WorkloadSpec(
                key=f"queens-{n}",
                label=f"{n}-Queens",
                build=lambda nn, n=n, depth=depth: nqueens_trace(n, depth),
                kind="queens",
            )
        )
    for num, cfg in _ida_configs(scale).items():
        specs.append(
            WorkloadSpec(
                key=f"ida-{num}",
                label=f"IDA* config #{num}",
                build=lambda nn, cfg=cfg: idastar_trace(cfg),
                kind="ida",
            )
        )
    for cutoff in (8.0, 12.0, 16.0):
        kwargs = _gromos_kwargs(scale)
        specs.append(
            WorkloadSpec(
                key=f"gromos-{cutoff:g}",
                label=f"GROMOS ({cutoff:g} A)",
                build=lambda nn, cutoff=cutoff, kwargs=kwargs: gromos_trace(
                    cutoff, num_nodes=nn, **kwargs
                ),
                kind="gromos",
            )
        )
    return specs


def workload(key: str, scale: str | None = None) -> WorkloadSpec:
    for spec in workloads(scale):
        if spec.key == key:
            return spec
    raise KeyError(key)


def strategy_factories(
    kind: str, num_nodes: int = 32
) -> dict[str, Callable[[], object]]:
    """Strategy constructors with the paper's per-workload tuning."""
    rid_u = (
        RID_UPDATE_FACTOR_IDA_LARGE
        if (kind == "ida" and num_nodes > 32)
        else RID_UPDATE_FACTOR_DEFAULT
    )
    return {
        "random": RandomAllocation,
        "gradient": GradientModel,
        "RID": lambda: ReceiverInitiatedDiffusion(
            l_low=2, l_threshold=1, update_factor=rid_u
        ),
        "RIPS": lambda: RIPS("lazy", "any"),
    }


def make_machine(num_nodes: int, seed: int = 1234) -> Machine:
    """The paper's machine: an n1 x n2 mesh (8x4 for 32 nodes)."""
    n1, n2 = mesh_shape_for(num_nodes)
    return Machine(MeshTopology(n1, n2), seed=seed)


def run_workload(
    spec: WorkloadSpec,
    strategy_name: str,
    num_nodes: int = 32,
    seed: int = 1234,
    config: ExecutionConfig = ExecutionConfig(),
    tracer=None,
    faults=None,
) -> RunMetrics:
    """One Table-I cell group: one workload under one strategy.

    A thin wrapper over :class:`repro.session.Session` (the machine/
    driver/tracer/faults wiring lives there now); kept because the
    per-experiment call sites read naturally as "run this spec".
    ``faults`` is an optional :class:`repro.faults.FaultPlan`; ``None``
    (or a null plan) leaves the machine untouched.
    """
    from repro.session import Session

    return Session(
        spec,
        strategy=strategy_name,
        num_nodes=num_nodes,
        seed=seed,
        config=config,
        faults=faults,
        trace=tracer,
    ).run()
