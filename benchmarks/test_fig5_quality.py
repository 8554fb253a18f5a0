"""Benchmark: Figure 5 — normalized quality factors.

Derived from Table I + Table II: quality factor
(mu_opt - mu_rand)/(mu_opt - mu_g); random == 1 by construction,
larger is better.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import fig5, quality_factors
from repro.runner import run_requests

from benchmarks.conftest import save_and_print


def test_fig5_quality_factors(benchmark, results_dir):
    results = run_requests(fig5.build_requests(num_nodes=32))
    factors = benchmark.pedantic(
        lambda: quality_factors(results),
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, "fig5", fig5.render(results))
    assert len(factors) == 9
    for key, per_strat in factors.items():
        assert per_strat["random"] == pytest.approx(1.0), key
    # the paper's headline: RIPS's quality factor tops every workload
    # group's chart on the large instances
    for key in ("gromos-16", "gromos-12"):
        rips = factors[key]["RIPS"]
        for other in ("gradient",):
            v = factors[key].get(other)
            if v is not None and math.isfinite(rips):
                assert rips >= v, (key, other)
