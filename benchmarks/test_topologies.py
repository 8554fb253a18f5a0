"""Benchmark: RIPS across topologies (paper §5's generality claim)."""

from __future__ import annotations

import pytest

from repro.experiments import topologies
from repro.metrics import format_table
from repro.runner import run_requests

from benchmarks.conftest import save_and_print


def test_rips_across_topologies(benchmark, results_dir):
    reqs = topologies.build_requests("queens-12", num_nodes=16, scale="small")
    metrics = benchmark.pedantic(
        lambda: run_requests(reqs), rounds=1, iterations=1,
    )
    results = {m.extra["topology_case"]: m for m in metrics}
    rows = [
        {
            "topology": name,
            "T(ms)": f"{m.T * 1e3:.1f}",
            "mu": f"{m.efficiency:.1%}",
            "nonlocal": m.nonlocal_tasks,
            "task-hops": m.task_hops,
            "phases": m.system_phases,
        }
        for name, m in results.items()
    ]
    save_and_print(results_dir, "topologies",
                   format_table(rows, title="RIPS across topologies (12-queens, 16 nodes)"))
    # generality: every topology completes with useful efficiency
    for name, m in results.items():
        assert m.efficiency > 0.4, name
    # the paper's DEM criticism: dimension exchange moves more task-hops
    # than the optimal planner on the same hypercube
    assert (
        results["hypercube+DEM"].extra["plan_cost_total"]
        >= results["hypercube+optimal"].extra["plan_cost_total"]
    )
