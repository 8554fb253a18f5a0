"""Ablation: incremental rescheduling vs one-shot prescheduling.

RIPS = global scheduling, applied *incrementally*.  Holding the planner
fixed (MWA) and removing only the increments — balance once at startup,
never correct — isolates the value of the paper's "runtime incremental"
half, complementing the planner ablation which isolates the "global
parallel scheduling" half.
"""

from __future__ import annotations

import pytest

from repro.apps import gromos_trace, nqueens_trace
from repro.balancers import StaticPreschedule
from repro.session import Session
from repro.core import RIPS
from repro.machine import MeshTopology
from repro.metrics import format_table

from benchmarks.conftest import save_and_print


def _run(trace, strategy, seed=13):
    return Session(trace, topology=MeshTopology(4, 4), strategy=strategy, seed=seed).run()


def test_ablation_incremental_vs_static(benchmark, results_dir):
    def run_grid():
        out = {}
        # dynamic spawning (queens): static cannot see future tasks
        queens = nqueens_trace(11, split_depth=3)
        out[("queens", "static")] = _run(queens, StaticPreschedule())
        out[("queens", "RIPS")] = _run(queens, RIPS("lazy", "any"))
        # grain variation (gromos): static balances counts, not work
        gromos = gromos_trace(8.0, num_nodes=16, n_atoms=2000, n_groups=1200)
        out[("gromos", "static")] = _run(gromos, StaticPreschedule())
        out[("gromos", "RIPS")] = _run(gromos, RIPS("lazy", "any"))
        return out

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = [
        {
            "workload": wl,
            "strategy": strat,
            "T(ms)": f"{m.T * 1e3:.1f}",
            "mu": f"{m.efficiency:.1%}",
            "phases": m.system_phases,
        }
        for (wl, strat), m in results.items()
    ]
    save_and_print(
        results_dir, "ablation_incremental",
        format_table(rows, title="incremental (RIPS) vs one-shot preschedule"),
    )
    # with dynamic task generation, a single upfront balance must lose
    assert (
        results[("queens", "RIPS")].efficiency
        > results[("queens", "static")].efficiency
    )
    # with grain variation, incremental correction must win too
    assert (
        results[("gromos", "RIPS")].efficiency
        >= 0.98 * results[("gromos", "static")].efficiency
    )
