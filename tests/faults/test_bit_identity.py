"""The PR-5 compatibility gate: the fault-model extension is invisible
unless you opt in.

Zero-fault runs and every ``detector="oracle"`` plan (the default) must
be *bit-identical* to the pre-detector behavior: same metrics, same
tracer records, same runner cache keys.  The golden fingerprints below
were captured from the seed revision and verified unchanged across the
detector/partition/fencing refactor — drift in any of them means a
default-path behavior change, which this PR promises not to make.

The records are fingerprinted as the JSONL exporter renders them (one
keyed dict per record), and ``EXPORT_PINS`` gates the exact bytes of
the Chrome file and the JSONL stream of the same two runs.
"""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

from repro.faults import FaultPlan
from repro.obs.export import trace_to_jsonl, write_chrome_trace
from repro.runner import RunRequest
from repro.session import Session

#: the shared probe cell: queens-10 on the default 4x4 mesh
ORACLE_PLAN = FaultPlan(seed=404, crashes=((5, 0.01),), drop_rate=0.01)

GOLDEN = {
    # plan-or-None -> (metrics fingerprint, tracer-records fingerprint)
    None: ("3d6439676ba4cc21", "7ed2680d9d08794c"),
    ORACLE_PLAN: ("d37d11951bc5fa63", "cb269a7909fee53c"),
}

CACHE_KEYS = {
    None: "614f149db6352566",
    ORACLE_PLAN: "ce80a5c2d8bd3cd4",
}

EXPORT_PINS = {
    # plan-or-None -> (sha256 of the Chrome file, sha256 of the JSONL stream)
    None: ("8594617e23fca69ddf2e0723c6f9767a1d7ab7938749485c342cbb165b63989d",
           "7925b4dbc5706aad2ba86a09d44aa20fc67583ee3f7620b7ea92f3aa2cc6e3e9"),
    ORACLE_PLAN: (
        "2f9fd374ce0f0eba4d016a2a7cade92450b54766ef5712c5f0845638a3c076e4",
        "2a935e5af19dc79b5d3ee6f14dc7534f6e15cbfbe38562cb31236a169356c6fa"),
}


def _fp(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _traced(plan):
    sess = Session("queens-10", strategy="RIPS", num_nodes=16, seed=7,
                   scale="small", faults=plan, trace=True)
    metrics = sess.run()
    return sess.tracer, metrics


def _run(plan):
    tracer, metrics = _traced(plan)
    d = dict(metrics.__dict__)
    extra = dict(d.pop("extra"))
    records = [json.loads(line) for line in trace_to_jsonl(tracer)]
    return _fp({"m": d, "extra": extra}), _fp(records)


def _export_hashes(plan):
    tracer, _metrics = _traced(plan)
    with tempfile.TemporaryDirectory() as tmp:
        chrome = write_chrome_trace(tracer, Path(tmp) / "trace.json").read_bytes()
    jsonl = "".join(f"{line}\n" for line in trace_to_jsonl(tracer)).encode()
    return hashlib.sha256(chrome).hexdigest(), hashlib.sha256(jsonl).hexdigest()


def test_zero_fault_run_matches_seed_fingerprints():
    assert _run(None) == GOLDEN[None]


def test_oracle_plan_matches_seed_fingerprints():
    assert _run(ORACLE_PLAN) == GOLDEN[ORACLE_PLAN]


def test_zero_fault_run_exports_pinned_bytes():
    assert _export_hashes(None) == EXPORT_PINS[None]


def test_oracle_plan_exports_pinned_bytes():
    assert _export_hashes(ORACLE_PLAN) == EXPORT_PINS[ORACLE_PLAN]


def test_cache_keys_unchanged():
    # new FaultPlan fields sit at their defaults -> canonical() omits
    # them -> RunRequest cache keys (and thus every cached result) from
    # before this PR stay valid.
    for plan, expected in CACHE_KEYS.items():
        req = RunRequest("queens-10", "RIPS", num_nodes=16, seed=7,
                         scale="small", faults=plan)
        key = hashlib.sha256(req.canonical_json().encode()).hexdigest()[:16]
        assert key == expected


def test_new_fields_do_not_leak_into_canonical_form():
    assert "detector" not in ORACLE_PLAN.canonical()
    assert "partitions" not in ORACLE_PLAN.canonical()
    for field in ("standby", "joins", "leaves", "elections"):
        assert field not in ORACLE_PLAN.canonical()
    explicit = FaultPlan(seed=404, crashes=((5, 0.01),), drop_rate=0.01,
                         detector="oracle", partitions=(),
                         standby=(), joins=(), leaves=(), elections=())
    assert explicit == ORACLE_PLAN
    assert explicit.canonical() == ORACLE_PLAN.canonical()


def test_heartbeat_and_partitions_do_change_the_cache_key():
    base = RunRequest("queens-10", "RIPS", num_nodes=16, seed=7,
                      scale="small", faults=ORACLE_PLAN)
    import dataclasses

    hb = dataclasses.replace(ORACLE_PLAN, detector="heartbeat")
    cut = dataclasses.replace(
        ORACLE_PLAN, partitions=(((0.004, 0.008,
                                   (tuple(range(8)), tuple(range(8, 16))))),))
    elastic = dataclasses.replace(
        ORACLE_PLAN, standby=(9,), joins=((9, 0.004),))
    for plan in (hb, cut, elastic):
        req = RunRequest("queens-10", "RIPS", num_nodes=16, seed=7,
                         scale="small", faults=plan)
        assert req.canonical_json() != base.canonical_json()
