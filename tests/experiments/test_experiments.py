"""Tests for the experiment harness (small scale)."""

import numpy as np
import pytest

from repro.experiments import (
    STRATEGY_ORDER,
    current_scale,
    fig4_point,
    fig5,
    quality_factor,
    quality_factors,
    strategy_factories,
    table1,
    table2,
    table3,
    workload,
    workloads,
)
from repro.runner import run_requests
from repro.session import Session


def test_scale_selection(monkeypatch):
    assert current_scale("paper") == "paper"
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert current_scale() == "small"
    with pytest.raises(ValueError):
        current_scale("huge")


def test_nine_workloads_defined():
    specs = workloads("small")
    assert len(specs) == 9
    kinds = [s.kind for s in specs]
    assert kinds.count("queens") == 3
    assert kinds.count("ida") == 3
    assert kinds.count("gromos") == 3
    assert workload("ida-2", "small").kind == "ida"
    with pytest.raises(KeyError):
        workload("nope", "small")


def test_strategy_factories_tuning():
    small = strategy_factories("ida", 32)
    large = strategy_factories("ida", 128)
    assert small["RID"]().update_factor == pytest.approx(0.4)
    assert large["RID"]().update_factor == pytest.approx(0.7)
    assert set(small) == set(STRATEGY_ORDER)


def test_fig4_point_small():
    p = fig4_point(8, 10, cases=10, seed=1)
    assert p.normalized_cost >= 0.0
    assert p.mean_cost_mwa >= p.mean_cost_opt > 0


def test_fig4_shape_small_vs_large_mesh():
    small = fig4_point(8, 10, cases=15, seed=2)
    large = fig4_point(64, 10, cases=15, seed=2)
    assert large.normalized_cost > small.normalized_cost


def test_keyed_session_single_cell():
    spec = workload("gromos-8", "small")
    m = Session(spec.key, strategy="RIPS", num_nodes=16, seed=7,
                scale="small").run()
    assert m.num_tasks > 0
    assert m.extra["workload_label"] == spec.label


def test_table1_restricted_grid_and_text():
    ms = run_requests(table1.build_requests(
        num_nodes=16, scale="small",
        strategies=("random", "RIPS"),
        workload_keys=("queens-10", "gromos-8"),
    ))
    assert len(ms) == 4
    text = table1.render(ms)
    assert "Table I" in text and "10-Queens" in text
    assert "on 16 Processors" in text


def test_table2_values_in_range():
    ms = run_requests(table2.build_requests(num_nodes=16, scale="small"))
    assert len(ms) == 9
    for m in ms:
        assert 0 < m.efficiency <= 1.0
    text = table2.render(ms)
    assert "Table II" in text


def test_quality_factor_definition():
    assert quality_factor(0.99, 0.65, 0.65) == pytest.approx(1.0)
    assert quality_factor(0.99, 0.65, 0.82) > 1.0
    assert quality_factor(0.99, 0.65, 0.50) < 1.0
    assert quality_factor(0.9, 0.5, 0.9) == float("inf")


def test_fig5_reuses_table1_metrics():
    ms = run_requests(table1.build_requests(
        num_nodes=16, scale="small",
        strategies=("random", "RIPS"),
        workload_keys=("queens-11",),
    ))
    opt = [m for m in run_requests(table2.build_requests(
        num_nodes=16, scale="small")) if m.workload == "queens-11"]
    factors = quality_factors(ms + opt)
    assert set(factors) == {"queens-11"}
    assert factors["queens-11"]["random"] == pytest.approx(1.0)
    assert "RIPS" in factors["queens-11"]
    text = fig5.render(ms + opt)
    assert "Figure 5" in text and "queens-11" in text


def test_fig5_maps_labels_at_either_scale(monkeypatch):
    # a simulated row finds its workload key through the optimal row's
    # label, not through the scale in the environment
    from repro.balancers import RunMetrics

    def row(workload, strategy, mu, label):
        m = RunMetrics(workload, strategy, 32, 1, 0, 1.0, 0.0, 0.0, mu, 1.0)
        m.extra["workload_label"] = label
        return m

    monkeypatch.setenv("REPRO_SCALE", "small")
    results = [row("13-queens", "random", 0.5, "13-Queens"),
               row("13-queens", "RIPS-any-lazy", 0.8, "13-Queens"),
               row("queens-13", "optimal", 0.9, "13-Queens")]
    factors = quality_factors(results)
    assert factors == {"queens-13": {"random": pytest.approx(1.0),
                                     "RIPS": pytest.approx(4.0)}}


def test_table3_speedups():
    ms = run_requests(table3.build_requests(
        num_nodes_list=(16,), scale="small", strategies=("random", "RIPS")))
    assert len(ms) == 6  # 3 workloads x 1 size x 2 strategies
    for m in ms:
        assert m.speedup > 1.0
    text = table3.render(ms)
    assert "Table III" in text and "speedup@16" in text
