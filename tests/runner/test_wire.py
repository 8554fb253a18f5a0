"""The v1 wire schema: RunRequest.to_json/from_json.

One canonical serializer feeds the service, the CLI, and the result
cache, so these tests pin the contract hard: versioned documents,
loud rejection of unknown fields and type mismatches, and loss-free
round-trips including nested config and fault plans.
"""

import json

import pytest

from repro.balancers.base import ExecutionConfig
from repro.faults.plan import FaultPlan
from repro.runner import API_VERSION, RunRequest, WireFormatError


def test_round_trip_defaults():
    req = RunRequest(workload="queens-10", strategy="RIPS")
    again = RunRequest.from_json(req.to_json())
    assert again == req


def test_round_trip_everything():
    req = RunRequest(
        workload="queens-11",
        strategy="random",
        num_nodes=16,
        seed=7,
        scale="small",
        config=ExecutionConfig(task_start_overhead=2e-5),
        topology_case="tree+walk",
        kind="sim",
        params=(("weight", 3),),
        trace=True,
        faults=FaultPlan(drop_rate=0.01, seed=9),
        session_overrides=(("contention", True),),
    )
    again = RunRequest.from_json(req.to_json())
    assert again == req
    # the wire form is pure JSON and versioned
    doc = json.loads(req.to_json())
    assert doc["api_version"] == API_VERSION


def test_wire_doc_omits_optional_defaults():
    doc = json.loads(RunRequest(workload="w", strategy="s").to_json())
    # core identity fields always serialize ...
    assert {"api_version", "workload", "strategy", "num_nodes",
            "seed"} <= set(doc)
    # ... while defaulted optionals stay off the wire (stable cache keys)
    for absent in ("trace", "faults", "params", "kind", "session_overrides"):
        assert absent not in doc


def test_unknown_field_is_rejected_by_name():
    # a retired field is unknown at any value: no shim keeps it alive
    for field, value in (("nodes", 32), ("shards", 0), ("shards", 2)):
        doc = {"api_version": API_VERSION, "workload": "w", "strategy": "s",
               field: value}
        with pytest.raises(WireFormatError, match=field):
            RunRequest.from_wire(doc)


def test_wrong_api_version_is_rejected():
    doc = {"api_version": 99, "workload": "w", "strategy": "s"}
    with pytest.raises(WireFormatError, match="99"):
        RunRequest.from_wire(doc)


def test_missing_api_version_is_rejected():
    with pytest.raises(WireFormatError, match="api_version"):
        RunRequest.from_wire({"workload": "w", "strategy": "s"})


def test_missing_required_fields_are_rejected():
    with pytest.raises(WireFormatError, match="workload"):
        RunRequest.from_wire({"api_version": API_VERSION, "strategy": "s"})


def test_type_errors_are_loud():
    base = {"api_version": API_VERSION, "workload": "w", "strategy": "s"}
    with pytest.raises(WireFormatError, match="num_nodes"):
        RunRequest.from_wire({**base, "num_nodes": "lots"})
    with pytest.raises(WireFormatError, match="num_nodes"):
        # bools are ints in Python; the wire schema refuses the pun
        RunRequest.from_wire({**base, "num_nodes": True})
    with pytest.raises(WireFormatError, match="trace"):
        RunRequest.from_wire({**base, "trace": "yes"})


def test_unknown_config_field_is_rejected():
    base = {"api_version": API_VERSION, "workload": "w", "strategy": "s"}
    with pytest.raises(WireFormatError, match="warp_speed"):
        RunRequest.from_wire({**base, "config": {"warp_speed": 9}})


def test_bad_json_is_a_wire_error():
    with pytest.raises(WireFormatError):
        RunRequest.from_json("{not json")
    with pytest.raises(WireFormatError, match="object"):
        RunRequest.from_json("[1, 2]")


def test_cache_key_unchanged_by_wire_round_trip(tmp_path):
    # the result cache keys off canonical(); wire round-trips must not
    # perturb it or every deployed cache invalidates
    from repro.runner import ResultCache

    cache = ResultCache(tmp_path)
    req = RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                     seed=3, scale="small")
    again = RunRequest.from_json(req.to_json())
    assert cache.key(again) == cache.key(req)
    assert again.content_hash() == req.content_hash()
