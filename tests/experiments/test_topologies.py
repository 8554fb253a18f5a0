"""Tests for the cross-topology experiment."""

import pytest

from repro.experiments import topologies
from repro.experiments.topologies import topology_cases
from repro.runner import run_requests


def test_cases_cover_paper_topologies():
    names = [c.name for c in topology_cases()]
    assert any("mesh" in n for n in names)
    assert any("tree" in n for n in names)
    assert any("hypercube" in n for n in names)


def test_comparison_runs_all_cases():
    reqs = topologies.build_requests("queens-10", num_nodes=8, scale="small")
    results = run_requests(reqs)
    assert [m.extra["topology_case"] for m in results] == \
        [c.name for c in topology_cases()]
    assert len({m.num_tasks for m in results}) == 1


def test_comparison_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        topologies.build_requests("queens-10", num_nodes=12)


def test_comparison_with_case_subset():
    reqs = topologies.build_requests("queens-10", num_nodes=4,
                                     case_names=["mesh+MWA"], scale="small")
    (m,) = run_requests(reqs)
    assert m.extra["topology_case"] == "mesh+MWA"
    assert m.num_nodes == 4
