"""Every experiment module speaks the same build_requests/render API,
and no other: the runner runs the requests."""

import importlib

import pytest

import repro.experiments as experiments
from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.common import workload
from repro.experiments.fig4 import fig4_point
from repro.optimal import optimal_efficiency
from repro.runner import RunRequest, run_requests


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_module_exposes_uniform_api(name):
    mod = importlib.import_module(f"repro.experiments.{name}")
    assert callable(getattr(mod, "build_requests"))
    assert callable(getattr(mod, "render"))


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_module_has_no_second_api(name):
    # a run wrapper, a second request builder or a second renderer would
    # be another way to run the same grid
    mod = importlib.import_module(f"repro.experiments.{name}")
    extra = [n for n in vars(mod)
             if n.startswith("run_") or n.endswith("_text")
             or (n.endswith("_requests") and n != "build_requests")]
    assert extra == []


def test_package_reexports_no_second_api():
    extra = [n for n in experiments.__all__
             if n.startswith("run_") or n.endswith(("_text", "_requests"))]
    assert extra == []


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_build_requests_returns_run_requests(name):
    mod = importlib.import_module(f"repro.experiments.{name}")
    kwargs = {"num_nodes": 8, "scale": "small", "seed": 11}
    if name == "fig4":
        kwargs = {"sizes": (8,), "weights": (3,), "cases": 2, "seed": 11}
    elif name == "table3":
        kwargs = {"num_nodes_list": (8,), "scale": "small", "seed": 11}
    elif name == "topologies":
        kwargs = {"workload_key": "queens-10", "num_nodes": 8,
                  "scale": "small", "seed": 11}
    reqs = mod.build_requests(**kwargs)
    assert reqs and all(isinstance(r, RunRequest) for r in reqs)


def test_table1_roundtrip_renders_table():
    reqs = experiments.table1.build_requests(num_nodes=8, scale="small", seed=11)
    text = experiments.table1.render(run_requests(reqs, cache=None))
    assert "Table I" in text and "RIPS" in text


def test_table2_runner_matches_direct_computation():
    reqs = experiments.table2.build_requests(num_nodes=16, scale="small")
    via_runner = {m.workload: m.efficiency for m in run_requests(reqs)}
    direct = {
        key: optimal_efficiency(workload(key, "small").build(16), 16)
        for key in via_runner
    }
    assert via_runner == pytest.approx(direct)


def test_fig4_runner_matches_direct_computation():
    reqs = experiments.fig4.build_requests(
        sizes=(8,), weights=(3,), cases=3, seed=7)
    (m,) = run_requests(reqs, cache=None)
    assert m.strategy == "MWA" and m.num_nodes == 8
    direct = fig4_point(8, 3, cases=3, seed=7)
    assert m.extra["normalized_cost"] == direct.normalized_cost


def test_fig5_render_splits_sim_and_optimal():
    reqs = experiments.fig5.build_requests(num_nodes=8, scale="small", seed=11)
    kinds = {r.kind for r in reqs}
    assert kinds == {"sim", "optimal"}
    text = experiments.fig5.render(run_requests(reqs, cache=None))
    assert "Figure 5" in text and "quality" in text.lower()


def test_topologies_roundtrip_renders_table():
    reqs = experiments.topologies.build_requests(
        workload_key="queens-10", num_nodes=8, scale="small", seed=11)
    text = experiments.topologies.render(run_requests(reqs, cache=None))
    assert "mesh" in text.lower()
