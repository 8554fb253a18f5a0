"""RunRequest: hashability, canonical form, content hashing."""

from __future__ import annotations

import pickle

from repro.balancers import ExecutionConfig
from repro.runner import RunRequest, execute_request


def test_request_is_hashable_and_usable_as_dict_key():
    a = RunRequest("queens-10", "RIPS")
    b = RunRequest("queens-10", "RIPS")
    c = RunRequest("queens-10", "random")
    assert a == b and hash(a) == hash(b)
    assert {a: 1, c: 2}[b] == 1


def test_request_pickles_roundtrip():
    req = RunRequest("ida-2", "RID", num_nodes=64, seed=7, scale="small")
    assert pickle.loads(pickle.dumps(req)) == req


def test_canonical_json_is_stable_and_complete():
    req = RunRequest("queens-10", "RIPS", num_nodes=32, seed=9)
    blob = req.canonical_json()
    assert blob == RunRequest("queens-10", "RIPS", num_nodes=32, seed=9).canonical_json()
    for fragment in ('"queens-10"', '"RIPS"', '"num_nodes":32', '"seed":9',
                     '"spawn_overhead"'):
        assert fragment in blob


def test_content_hash_differs_per_field():
    base = RunRequest("queens-10", "RIPS")
    variants = [
        RunRequest("queens-11", "RIPS"),
        RunRequest("queens-10", "RID"),
        RunRequest("queens-10", "RIPS", num_nodes=64),
        RunRequest("queens-10", "RIPS", seed=2),
        RunRequest("queens-10", "RIPS", topology_case="mesh+MWA"),
        RunRequest("queens-10", "RIPS",
                   config=ExecutionConfig(spawn_overhead=7e-6)),
    ]
    hashes = {base.content_hash()} | {v.content_hash() for v in variants}
    assert len(hashes) == 1 + len(variants)


def test_execute_request_matches_keyed_session():
    from repro.session import Session

    req = RunRequest("queens-10", "RIPS", num_nodes=16, seed=5, scale="small")
    via_runner = execute_request(req)
    direct = Session("queens-10", strategy="RIPS", num_nodes=16, seed=5,
                     scale="small").run()
    assert via_runner == direct


def test_execute_request_topology_case():
    req = RunRequest("queens-10", "RIPS", num_nodes=16, seed=77,
                     scale="small", topology_case="crossbar+optimal")
    m = execute_request(req)
    assert m.extra["topology_case"] == "crossbar+optimal"
    assert m.num_nodes == 16


# ----------------------------------------------------------------------
# fault plans on requests (cache-key stability is the contract)
# ----------------------------------------------------------------------

def test_null_or_absent_fault_plan_leaves_the_hash_unchanged():
    from repro.faults import NULL_PLAN, FaultPlan

    plain = RunRequest("queens-10", "RIPS")
    nulled = RunRequest("queens-10", "RIPS", faults=NULL_PLAN)
    faulty = RunRequest("queens-10", "RIPS", faults=FaultPlan.lossy(0.01))
    # a null plan is semantically fault-free: same cell, same cache entry
    assert nulled.content_hash() == plain.content_hash()
    assert "faults" not in plain.canonical_json()
    assert faulty.content_hash() != plain.content_hash()
    assert '"drop_rate":0.01' in faulty.canonical_json()
    assert faulty.label().endswith("/faults")
    assert not nulled.label().endswith("/faults")


def test_fault_plan_hash_varies_with_plan_contents():
    from repro.faults import FaultPlan

    hashes = {
        RunRequest("queens-10", "RIPS", faults=plan).content_hash()
        for plan in (
            FaultPlan.lossy(0.01),
            FaultPlan.lossy(0.02),
            FaultPlan.lossy(0.01, seed=1),
            FaultPlan.fail_stop(((5, 0.01),)),
        )
    }
    assert len(hashes) == 4


def test_faulty_request_pickles_roundtrip():
    from repro.faults import FaultPlan

    req = RunRequest("queens-10", "RID", num_nodes=16, scale="small",
                     faults=FaultPlan.fail_stop(((3, 0.01),), seed=7))
    assert pickle.loads(pickle.dumps(req)) == req


def test_topology_case_honours_execution_config():
    # a topology cell is built from the whole request, its cost knobs too
    base = RunRequest("queens-10", "RIPS", num_nodes=8, seed=77,
                      scale="small", topology_case="mesh+MWA")
    slow = RunRequest("queens-10", "RIPS", num_nodes=8, seed=77,
                      scale="small", topology_case="mesh+MWA",
                      config=ExecutionConfig(spawn_overhead=1e-3))
    assert execute_request(slow).T > execute_request(base).T


def test_fault_plans_rejected_on_non_sim_cells():
    import pytest

    from repro.faults import FaultPlan

    plan = FaultPlan.lossy(0.01)
    for req in (
        RunRequest("queens-10", "optimal", kind="optimal", scale="small",
                   faults=plan),
        RunRequest("queens-10", "RIPS", scale="small", faults=plan,
                   topology_case="crossbar+optimal"),
    ):
        with pytest.raises(ValueError, match="fault plans apply only"):
            execute_request(req)
