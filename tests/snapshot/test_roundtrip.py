"""The tentpole guarantee: restore-then-run == uninterrupted run.

For every strategy × fault-plan combination, a run that is paused
mid-flight, checkpointed, restored (through a full pickle/disk round
trip), and resumed must produce *exactly* the metrics, tracer records,
and conservation audit of a run that never stopped.
"""

import dataclasses

import pytest

from repro.faults import FaultPlan, audit_conservation
from repro.session import Session
from repro.snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotVersionError,
    restore as snapshot_restore,
)

STRATEGIES = ("random", "gradient", "RID", "RIPS")

PLANS = {
    "fault-free": None,
    "lossy": FaultPlan(seed=42, drop_rate=0.02, duplicate_rate=0.01),
    "crashy": FaultPlan(seed=7, crashes=((3, 0.005),)),
}

#: well below the smallest strategy's total (~1500 events for RIPS on
#: queens-10@8), so every combination genuinely pauses mid-run
PAUSE_EVENTS = 1000


def _session(strategy, plan, trace=False):
    return Session("queens-10", strategy=strategy, num_nodes=8,
                   scale="small", faults=plan, trace=trace)


def _resume_through_disk(sess, tmp_path):
    """checkpoint -> save -> load -> restore, the full round trip."""
    path = sess.checkpoint().save(tmp_path / "pause.ckpt")
    return Session.restore(Snapshot.load(path))


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_restore_then_run_is_bit_identical(strategy, plan_name, tmp_path):
    plan = PLANS[plan_name]
    ref = _session(strategy, plan).run()

    sess = _session(strategy, plan)
    partial = sess.run(max_events=PAUSE_EVENTS)
    if partial is not None:  # finished inside the pause budget
        assert partial == ref
        return
    got = _resume_through_disk(sess, tmp_path).run()
    # dataclass equality covers every metric field, including extras
    assert got == ref


@pytest.mark.parametrize("strategy", ("random", "RIPS"))
def test_traced_resume_matches_records_and_audit(strategy, tmp_path):
    """Tracer record streams — and the conservation audit computed from
    them — survive the round trip unchanged (crash plan: the audit has
    real lost/crashed state to agree on)."""
    plan = PLANS["crashy"]
    ref_sess = _session(strategy, plan, trace=True)
    ref = ref_sess.run()

    sess = _session(strategy, plan, trace=True)
    partial = sess.run(max_events=PAUSE_EVENTS)
    if partial is not None:
        pytest.skip("workload finished inside the pause budget")
    resumed = _resume_through_disk(sess, tmp_path)
    got = resumed.run()
    assert got == ref

    # the restored session adopts the tracer frozen inside the snapshot
    assert resumed.tracer is not sess.tracer
    assert resumed.tracer.records == ref_sess.tracer.records

    trace = sess.machine.snapshot_root("trace")

    def audit(m, tracer):
        return audit_conservation(
            trace,
            tracer.records,
            m.extra.get("lost_task_ids", ()),
            m.extra.get("crashed_nodes", ()),
        )

    ref_audit = audit(ref, ref_sess.tracer)
    got_audit = audit(got, resumed.tracer)
    assert got_audit.ok == ref_audit.ok
    assert got_audit.summary() == ref_audit.summary()


def test_checkpoint_is_read_only_and_deterministic():
    """Taking a checkpoint must not perturb the run it froze, and two
    captures of the same paused state hash identically."""
    ref = _session("RIPS", None).run()

    sess = _session("RIPS", None)
    assert sess.run(max_events=PAUSE_EVENTS) is None
    first = sess.checkpoint()
    second = sess.checkpoint()
    assert first.content_hash() == second.content_hash()
    # the checkpointed session itself keeps running, unperturbed
    assert sess.run() == ref


def test_double_resume_from_one_snapshot(tmp_path):
    """One snapshot can seed many futures: two restores run
    independently and identically."""
    sess = _session("RID", PLANS["lossy"])
    if sess.run(max_events=PAUSE_EVENTS) is not None:
        pytest.skip("workload finished inside the pause budget")
    snap = sess.checkpoint()
    a = Session.restore(snap).run()
    b = Session.restore(snap).run()
    assert a == b == sess.run()


def test_save_load_preserves_snapshot_exactly(tmp_path):
    sess = _session("RIPS", None)
    sess.run(max_events=PAUSE_EVENTS)
    snap = sess.checkpoint(meta={"label": "pause"})
    path = snap.save(tmp_path / "x.ckpt")
    loaded = Snapshot.load(path)
    assert loaded == snap
    assert loaded.meta["label"] == "pause"
    assert loaded.meta["events_processed"] == PAUSE_EVENTS


def test_version_mismatch_raises_cleanly(tmp_path):
    sess = _session("random", None)
    sess.run(max_events=PAUSE_EVENTS)
    snap = sess.checkpoint()

    stale = dataclasses.replace(snap, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(SnapshotVersionError) as excinfo:
        Session.restore(stale)
    assert excinfo.value.found == SNAPSHOT_VERSION + 1
    assert excinfo.value.expected == SNAPSHOT_VERSION

    # on disk, the header is rejected before any payload unpickling
    path = stale.save(tmp_path / "stale.ckpt")
    with pytest.raises(SnapshotVersionError):
        Snapshot.load(path)


def test_corrupt_files_raise_snapshot_error(tmp_path):
    not_snap = tmp_path / "not.ckpt"
    not_snap.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotError):
        Snapshot.load(not_snap)

    # truncation anywhere — header, meta, or payload — ends in
    # SnapshotError, never a raw pickle explosion reaching the caller
    sess = _session("random", None)
    sess.run(max_events=PAUSE_EVENTS)
    path = sess.checkpoint().save(tmp_path / "good.ckpt")
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(path.read_bytes()[:200])
    with pytest.raises(SnapshotError):
        snapshot_restore(Snapshot.load(truncated))


def test_capture_refused_mid_event():
    """Checkpointing from inside a scheduled callback would freeze a
    half-applied event; capture refuses."""
    sess = _session("RIPS", None)
    machine = sess.machine
    caught = []

    def grab() -> None:
        try:
            machine.checkpoint()
        except SnapshotError as exc:
            caught.append(exc)

    machine.sim.schedule(0.0, grab)
    machine.run(max_events=1)
    assert len(caught) == 1
    assert "mid-event" in str(caught[0])
