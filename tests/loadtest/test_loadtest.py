"""Loadtest harness: schedule determinism, config strictness, the
runner campaign end to end, and the report's structural + ratio gates.
"""

from __future__ import annotations

import json

import pytest

from repro.loadtest import (
    LOADTEST_DATA_VERSION,
    LoadtestConfig,
    build_schedule,
    check_loadtest,
    format_loadtest,
    make_loadtest_report,
    run_loadtest,
)
from repro.loadtest.report import DEFAULT_LOADTEST_PATH, _structural_failures
from repro.obs.metrics import REPORT_SCHEMA, validate_report


def _config(**kw) -> LoadtestConfig:
    kw.setdefault("sessions", 4)
    kw.setdefault("concurrency", 2)
    kw.setdefault("workloads", ("queens-10",))
    kw.setdefault("strategies", ("RIPS", "RID"))
    kw.setdefault("num_nodes", 8)
    kw.setdefault("attribution", False)
    return LoadtestConfig(**kw)


# ----------------------------------------------------------------------
# schedule determinism
# ----------------------------------------------------------------------

def test_schedule_is_deterministic_and_round_robin():
    config = _config(sessions=6)
    a, b = build_schedule(config), build_schedule(config)
    assert a == b  # same seed + config => identical sequence
    assert [c.request.strategy for c in a] == \
        ["RIPS", "RID", "RIPS", "RID", "RIPS", "RID"]
    # closed loop: everything offered at t=0
    assert all(c.offset_s == 0.0 for c in a)
    # repeats carry the same content (the result-cache exercise)
    assert a[0].request == a[2].request == a[4].request


def test_open_loop_offsets_are_seeded_and_increasing():
    config = _config(sessions=5, arrival="open", rate=100.0, seed=42)
    a, b = build_schedule(config), build_schedule(config)
    assert [c.offset_s for c in a] == [c.offset_s for c in b]
    offsets = [c.offset_s for c in a]
    assert offsets == sorted(offsets)
    assert offsets[0] > 0.0
    # a different seed draws different arrivals
    other = build_schedule(_config(sessions=5, arrival="open",
                                   rate=100.0, seed=43))
    assert [c.offset_s for c in other] != offsets


def test_config_roundtrip_and_strictness():
    config = _config(arrival="open", seed=9)
    assert LoadtestConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown loadtest config"):
        LoadtestConfig.from_dict({**config.to_dict(), "bogus": 1})
    with pytest.raises(ValueError, match="arrival"):
        LoadtestConfig(arrival="sometimes")
    with pytest.raises(ValueError):
        LoadtestConfig(sessions=0)
    with pytest.raises(ValueError, match="mix"):
        build_schedule(_config(workloads=()))


# ----------------------------------------------------------------------
# the runner campaign, end to end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def runner_report():
    config = _config(sessions=4, concurrency=2, attribution=True)
    return config, make_loadtest_report(
        config, run_loadtest(config, target="runner"))


def test_runner_campaign_measures_something(runner_report):
    config, report = runner_report
    validate_report(report, kind="loadtest")
    assert report["schema"] == REPORT_SCHEMA
    data = report["data"]
    assert data["version"] == LOADTEST_DATA_VERSION
    out = data["targets"]["runner"]
    assert out["completed"] == config.sessions and out["failed"] == 0
    assert out["latency_s"]["p50"] > 0 and out["latency_s"]["p99"] > 0
    assert out["wait_s"]["count"] == config.sessions
    assert out["events_per_sec"] > 0
    # sessions > mix size => the repeats must hit the private cache
    assert out["cache"]["result_hits"] >= 1
    assert data["attribution"]["reconcile"]["ok"]
    assert data["attribution"]["reconcile"]["delta_s"] == 0.0


def test_runner_report_passes_structural_gates(runner_report):
    _config_, report = runner_report
    assert _structural_failures(report) == []
    text = format_loadtest(report)
    assert "runner" in text and "ev/s" in text


def test_structural_gates_catch_empty_measurements(runner_report):
    _config_, report = runner_report
    broken = json.loads(json.dumps(report))  # deep copy
    out = broken["data"]["targets"]["runner"]
    out["completed"] = 0
    out["events_per_sec"] = 0.0
    out["latency_s"] = {"count": 0}
    failures = _structural_failures(broken)
    assert any("completed" in f for f in failures)
    assert any("events/sec" in f for f in failures)
    assert any("percentiles" in f for f in failures)


def test_check_gates_against_committed_baseline(tmp_path, runner_report):
    _config_, report = runner_report
    base = tmp_path / "BENCH_loadtest.json"
    base.write_text(json.dumps(report, indent=2, sort_keys=True))
    # same measurement vs itself: every ratio is 1.0 and the gate holds
    result = check_loadtest(path=base, report=report)
    assert result["ok"], result["failures"]
    assert result["ratios"]["runner.events_per_sec"] == pytest.approx(1.0)
    assert result["ratios"]["runner.p99_latency"] == pytest.approx(1.0)
    # a collapse in throughput trips the generous floor
    slow = json.loads(json.dumps(report))
    slow["data"]["targets"]["runner"]["events_per_sec"] = (
        report["data"]["targets"]["runner"]["events_per_sec"] * 0.01)
    result = check_loadtest(path=base, report=slow)
    assert not result["ok"]
    assert any("events/sec regressed" in f for f in result["failures"])


def test_committed_baseline_loads():
    # ``loadtest --check`` reads the committed file's envelope and config
    # blocks before it measures anything; a stale or unknown field there
    # fails the gate however fast the code is
    baseline = json.loads(DEFAULT_LOADTEST_PATH.read_text())
    validate_report(baseline, kind="loadtest")
    LoadtestConfig.from_dict(baseline["data"]["config"])
    LoadtestConfig.from_dict(baseline["data"]["churn"]["config"])


def test_check_without_baseline_fails_loudly(tmp_path):
    result = check_loadtest(path=tmp_path / "missing.json")
    assert not result["ok"]
    assert any("no baseline" in f for f in result["failures"])


# ----------------------------------------------------------------------
# the churn profile
# ----------------------------------------------------------------------

def test_churn_schedule_attaches_deterministic_plans():
    config = _config(sessions=6, churn=True)
    a, b = build_schedule(config), build_schedule(config)
    assert a == b
    for cell in a:
        plan = cell.request.faults
        assert plan is not None and plan.has_membership()
        assert plan.detector == "heartbeat"
        # the chaos harness's per-cell stream: cell i replays under
        # `repro chaos --churn` at the same campaign seed
        import random

        from repro.faults.chaos import random_churn_plan

        expected = random_churn_plan(
            random.Random((config.seed << 20) ^ cell.index),
            num_nodes=config.num_nodes)
        assert plan == expected
    # distinct per-cell plans: repeats do NOT share a content hash
    hashes = {c.request.content_hash() for c in a}
    assert len(hashes) == len(a)
    # and the config round-trips with the new field
    assert LoadtestConfig.from_dict(config.to_dict()) == config


def test_churn_without_flag_changes_nothing():
    plain, churny = _config(sessions=4), _config(sessions=4, churn=True)
    for cell in build_schedule(plain):
        assert cell.request.faults is None
    assert [c.request.label() for c in build_schedule(plain)] != \
        [c.request.label() for c in build_schedule(churny)]


def test_structural_gates_exempt_churn_from_cache_hits():
    config = _config(sessions=6, churn=True)
    outcome = {
        "targets": {
            "runner": {
                "sessions": 6, "completed": 6, "failed": 0,
                "latency_s": {"p50": 0.1, "p99": 0.2},
                "events_per_sec": 1000.0,
                "cache": {"result_hits": 0},
                "errors": {"r429": 0, "r503": 0},
            }
        }
    }
    report = make_loadtest_report(config, outcome)
    assert _structural_failures(report) == []
    # the same zero-hit outcome without churn IS a failure
    report["data"]["config"]["churn"] = False
    assert any("zero result-cache hits" in f
               for f in _structural_failures(report))
