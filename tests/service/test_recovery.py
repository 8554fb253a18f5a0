"""Crash recovery: journal replay, re-admission semantics, SIGKILL e2e."""

import asyncio
import json

import pytest

from repro.runner import RunRequest
from repro.service import (
    QuotaExceeded,
    ServiceConfig,
    SessionJournal,
    SessionManager,
)
from repro.service.manager import metrics_to_wire
from repro.session import Session
from repro.store import LocalDirStore


def _req(seed=1, **kw):
    base = dict(workload="queens-10", strategy="RIPS", num_nodes=8,
                seed=seed, scale="small")
    base.update(kw)
    return RunRequest(**base)


def _config(tmp_path, **kw):
    base = dict(port=0, slice_events=300, quota_refill=1000.0,
                quota_tokens=10_000.0, use_result_cache=False,
                store_root=str(tmp_path), retry_seed=7)
    base.update(kw)
    return ServiceConfig(**base)


def _direct(req):
    return json.dumps(metrics_to_wire(Session.from_request(req).run()),
                      sort_keys=True)


def _wire(metrics):
    return json.dumps(metrics_to_wire(metrics), sort_keys=True)


def _interrupted(journal, n, req, tenant="tests"):
    """Fabricate the journal a crashed server leaves behind: admitted,
    running, no terminal entry."""
    sid = f"s{n:04d}-fab{n:04x}ab"
    journal.admit(sid, tenant, req.to_wire(), n=n)
    journal.record(sid, {"kind": "state", "state": "running", "seq": 2})
    return sid


async def _drain(manager):
    tasks = [r.task for r in manager.records.values() if r.task is not None]
    if tasks:
        await asyncio.gather(*tasks)


# ---------------------------------------------------------------------------
# journal replay through SessionManager.recover()
# ---------------------------------------------------------------------------
def test_recover_twice_is_a_noop(tmp_path):
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    reqs = {_interrupted(journal, n, _req(seed=40 + n)): _req(seed=40 + n)
            for n in (1, 2)}

    async def main():
        manager = SessionManager(_config(tmp_path), store=store)
        first = manager.recover()
        assert first["sessions"] == 2
        assert first["restarted"] == 2
        second = manager.recover()
        assert second["sessions"] == 0
        assert second["skipped"] == 2
        await _drain(manager)
        assert len(manager.records) == 2  # no duplicates either pass
        for sid, req in reqs.items():
            rec = manager.records[sid]
            assert rec.state == "done"
            assert _wire(rec.metrics) == _direct(req)
        await manager.shutdown()

    asyncio.run(main())


def test_recover_readmits_in_admission_order(tmp_path):
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    for n in (5, 2, 9):  # journal written out of order on purpose
        _interrupted(journal, n, _req(seed=50 + n))

    async def main():
        manager = SessionManager(_config(tmp_path), store=store)
        manager.recover()
        order = [int(sid.split("-", 1)[0].lstrip("s"))
                 for sid in manager.records]
        assert order == [2, 5, 9]
        # fresh ids continue strictly after the recovered admission span
        assert manager._new_id().startswith("s0010-")
        await _drain(manager)
        await manager.shutdown()

    asyncio.run(main())


def test_terminal_and_paused_sessions_survive_restart(tmp_path):
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    metrics = {"T": 1.23, "events": 10}
    error = {"code": "slice_failed", "message": "boom", "attempts": 3}

    journal.admit("s0001-done0000", "tests", _req(seed=61).to_wire(), n=1)
    journal.record("s0001-done0000", {"kind": "state", "state": "done",
                                      "seq": 5, "metrics": metrics})
    journal.admit("s0002-fail0000", "tests", _req(seed=62).to_wire(), n=2)
    journal.record("s0002-fail0000", {"kind": "state", "state": "failed",
                                      "seq": 4, "error": error})
    journal.admit("s0003-paus0000", "tests", _req(seed=63).to_wire(), n=3)
    journal.record("s0003-paus0000", {"kind": "state", "state": "paused",
                                      "seq": 6,
                                      "checkpoint": "s0003-paus0000-0002"})

    async def main():
        manager = SessionManager(_config(tmp_path), store=store)
        summary = manager.recover()
        assert summary["terminal"] == 2
        assert summary["paused"] == 1
        done = manager.get("s0001-done0000")
        assert done.state == "done"
        assert done.metrics == metrics
        failed = manager.get("s0002-fail0000")
        assert failed.state == "failed"
        assert failed.error == error
        paused = manager.get("s0003-paus0000")
        assert paused.state == "paused"
        assert paused.checkpoint_key == "s0003-paus0000-0002"
        await manager.shutdown()

    asyncio.run(main())


def test_missing_checkpoint_blob_restarts_from_scratch(tmp_path):
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    req = _req(seed=64)
    sid = _interrupted(journal, 1, req)
    journal.record(sid, {"kind": "checkpoint", "auto": True, "seq": 8,
                         "checkpoint": f"{sid}-auto-0004"})  # blob never
    # survived the crash

    async def main():
        manager = SessionManager(_config(tmp_path), store=store)
        summary = manager.recover()
        assert summary["restarted"] == 1
        assert summary["resumed"] == 0
        await _drain(manager)
        rec = manager.records[sid]
        assert rec.state == "done"
        assert _wire(rec.metrics) == _direct(req)
        await manager.shutdown()

    asyncio.run(main())


def test_journaled_request_with_retired_field_is_skipped(tmp_path):
    # A journal left by an older build can carry a field this build's
    # wire schema no longer accepts.  That one session is skipped (not
    # re-admitted, not fatal); every other interrupted session finishes.
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    legacy = {**_req(seed=65).to_wire(), "shards": 2}
    journal.admit("s0001-old00000", "tests", legacy, n=1)
    journal.record("s0001-old00000",
                   {"kind": "state", "state": "running", "seq": 2})
    reqs = {_interrupted(journal, n, _req(seed=65 + n)): _req(seed=65 + n)
            for n in (2, 3)}

    async def main():
        manager = SessionManager(_config(tmp_path), store=store)
        summary = manager.recover()
        assert summary["skipped"] == 1
        assert summary["sessions"] == 2
        assert summary["restarted"] == 2
        assert "s0001-old00000" not in manager.records
        await _drain(manager)
        for sid, req in reqs.items():
            rec = manager.records[sid]
            assert rec.state == "done"
            assert _wire(rec.metrics) == _direct(req)
        await manager.shutdown()

    asyncio.run(main())


def test_readmission_bypasses_quota_and_buckets_restart_full(tmp_path):
    # Pinned semantic: tenant token buckets are in-memory only.  A
    # restart rebuilds them FULL, and journal re-admission never charges
    # quota — the crashed sessions were already paid for.
    store = LocalDirStore(tmp_path)
    journal = SessionJournal(store)
    tenant = "metered"
    reqs = {_interrupted(journal, n, _req(seed=70 + n), tenant=tenant):
            _req(seed=70 + n) for n in (1, 2, 3)}

    async def main():
        manager = SessionManager(
            _config(tmp_path, quota_tokens=1.0, quota_refill=0.001),
            store=store)
        summary = manager.recover()
        assert summary["restarted"] == 3  # 3 sessions through a 1-token quota
        await _drain(manager)
        for sid, req in reqs.items():
            assert manager.records[sid].state == "done"
        # the rebuilt bucket is full: exactly one fresh submit fits
        rec = manager.submit(tenant, _req(seed=80))
        await rec.task
        assert rec.state == "done"
        with pytest.raises(QuotaExceeded):
            manager.submit(tenant, _req(seed=81))
        await manager.shutdown()

    asyncio.run(main())


def test_journal_disabled_recover_is_empty(tmp_path):
    async def main():
        manager = SessionManager(_config(tmp_path, journal=False),
                                 store=LocalDirStore(tmp_path))
        summary = manager.recover()
        assert summary == {"sessions": 0, "resumed": 0, "restarted": 0,
                           "terminal": 0, "paused": 0, "skipped": 0}
        await manager.shutdown()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# the acceptance e2e: SIGKILL a real server with >= 4 mid-run sessions
# ---------------------------------------------------------------------------
def test_sigkill_e2e_four_sessions_recover_bit_identically(tmp_path):
    from repro.faults.service_chaos import _scenario_server_sigkill

    case = _scenario_server_sigkill(tmp_path, seed=0, kills=1)
    assert case.ok, "\n".join(case.violations)
