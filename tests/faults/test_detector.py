"""Heartbeat failure detection: true positives, false suspicion,
incarnation refutation, fencing, and the fault-timeline observability.
"""

import pytest

from repro.faults import FaultPlan, audit_session
from repro.session import Session

NODES = 16


def _run(plan, **kw):
    sess = Session("queens-10", strategy="RIPS", num_nodes=NODES, seed=7,
                   scale="small", faults=plan, trace=True, **kw)
    metrics = sess.run()
    return sess, metrics


# ----------------------------------------------------------------------
# true positive: a real crash is found over the wire
# ----------------------------------------------------------------------
def test_heartbeat_detects_a_real_crash():
    plan = FaultPlan(seed=404, detector="heartbeat", crashes=((5, 0.01),))
    sess, metrics = _run(plan)
    inj = sess.machine.faults
    assert metrics.extra["crashed_nodes"] == [5]
    assert 5 in inj.detected_dead
    # detection came from gossip corroboration, not the oracle: the
    # monitors' notes record the suspect -> dead transition
    assert inj.counts.get("false_deaths", 0) == 0
    assert metrics.extra.get("lost_tasks", 0) == 0
    report = audit_session(sess, metrics)
    assert report.ok, report.summary()


def test_heartbeat_matches_oracle_crash_outcome():
    # same crash, both detectors: the heartbeat run pays detection
    # latency and protocol traffic but loses nothing and conserves all
    # tasks, exactly like the oracle run
    oracle = FaultPlan(seed=404, crashes=((5, 0.01),))
    hb = FaultPlan(seed=404, detector="heartbeat", crashes=((5, 0.01),))
    for plan in (oracle, hb):
        sess, metrics = _run(plan)
        assert metrics.extra["crashed_nodes"] == [5]
        assert audit_session(sess, metrics).ok


# ----------------------------------------------------------------------
# false positive: a long stall looks exactly like a crash
# ----------------------------------------------------------------------
def test_long_stall_causes_false_suspicion_then_rejoin():
    # 20 ms of silence vastly exceeds the derived heartbeat timeout, so
    # rank 3 is declared dead while alive; the declaration fences it,
    # the stall's end triggers refutation, and it rejoins — no task may
    # be lost or double-executed through the whole episode.
    plan = FaultPlan(seed=404, detector="heartbeat",
                     stalls=((3, 0.004, 0.020),))
    sess, metrics = _run(plan)
    inj = sess.machine.faults
    assert inj.counts.get("false_deaths", 0) >= 1
    assert inj.counts.get("rejoins", 0) >= 1
    assert metrics.extra["rejoined_nodes"] == [3]
    assert metrics.extra.get("crashed_nodes", []) == []
    assert metrics.extra.get("lost_tasks", 0) == 0
    # the refutation bumped rank 3's incarnation and cleared the death
    assert inj.detector.incarnation[3] >= 1
    assert 3 not in inj.detected_dead
    assert not sess.machine.nodes[3].fenced
    report = audit_session(sess, metrics)
    assert report.ok, report.summary()


@pytest.mark.parametrize("workload,strategy,stall_start", [
    ("ida-1", "RIPS", 0.002),
    ("ida-1", "gradient", 0.004),
    ("ida-2", "RID", 0.008),
    ("ida-3", "random", 0.004),
])
def test_false_death_of_a_pin_holder_loses_nothing(workload, strategy,
                                                   stall_start):
    # IDA*'s next-iteration driver task is pinned to rank 0 and waits in
    # the cross-wave hold.  A false death of rank 0 must hold it for the
    # refutation, not write it off as pinned-to-crashed: the node never
    # crashed, so every loss would be unjustified.
    plan = FaultPlan(seed=1, detector="heartbeat",
                     stalls=((0, stall_start, 0.020),))
    sess = Session(workload, strategy=strategy, num_nodes=NODES, seed=7,
                   scale="small", faults=plan, trace=True)
    metrics = sess.run()
    assert sess.machine.faults.counts.get("false_deaths", 0) >= 1
    assert metrics.extra["lost_tasks"] == 0
    assert metrics.extra["crashed_nodes"] == []
    assert 0 in metrics.extra["rejoined_nodes"]
    report = audit_session(sess, metrics)
    assert report.ok, report.summary()


def test_short_stall_is_not_suspected():
    # a stall well under the timeout never even raises SUSPECT
    plan = FaultPlan(seed=404, detector="heartbeat",
                     heartbeat_period=2e-3, heartbeat_timeout=20e-3,
                     stalls=((3, 0.004, 0.002),))
    sess, metrics = _run(plan)
    inj = sess.machine.faults
    assert inj.counts.get("false_deaths", 0) == 0
    assert metrics.extra.get("rejoined_nodes", []) == []
    assert audit_session(sess, metrics).ok


# ----------------------------------------------------------------------
# observability: the fault timeline is in the tracer
# ----------------------------------------------------------------------
def test_detector_transitions_surface_in_the_tracer():
    plan = FaultPlan(seed=404, detector="heartbeat",
                     stalls=((3, 0.004, 0.020),))
    sess, _metrics = _run(plan)
    records = sess.tracer.records
    fault_counters = {name for ph, _node, cat, name, *_ in records
                      if ph == "C" and cat == "fault"}
    assert "false_deaths" in fault_counters
    assert "rejoins" in fault_counters
    instants = {name for ph, _node, cat, name, *_ in records
                if ph == "i" and cat == "fault"}
    # suspicion, death, fencing, and the rejoin all leave timeline marks
    assert {"hb-suspect", "hb-dead", "fenced", "rejoin"} <= instants


def test_injector_counts_in_stats_summary():
    plan = FaultPlan(seed=404, detector="heartbeat", crashes=((5, 0.01),),
                     drop_rate=0.01)
    sess, metrics = _run(plan)
    stats = metrics.extra["fault_stats"]
    assert stats["crashes"] == 1
    assert "max_attempts" in stats  # obs-rich plans surface the envelope
    assert "rejoined" in stats


# ----------------------------------------------------------------------
# tuning knobs
# ----------------------------------------------------------------------
def test_detector_knobs_are_respected():
    plan = FaultPlan(detector="heartbeat", heartbeat_period=1e-3,
                     heartbeat_timeout=5e-3, refute_delay=7e-3,
                     corroboration=3)
    sess, metrics = _run(plan)
    det = sess.machine.faults.detector
    assert det.period == 1e-3
    assert det.timeout == 5e-3
    assert det.refute_delay == 7e-3
    assert audit_session(sess, metrics).ok
