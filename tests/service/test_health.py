"""The ok -> degraded -> shedding health machine and its side effects."""

import json
import threading
import time

import pytest

from repro.runner import RunRequest
from repro.service import (
    HealthMonitor,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    serve_background,
)
from repro.service.manager import metrics_to_wire
from repro.session import Session
from repro.store import LocalDirStore


def _config(tmp_path=None, **kw):
    base = dict(port=0, slice_events=300, quota_refill=1000.0,
                quota_tokens=10_000.0, use_result_cache=False)
    if tmp_path is not None:
        base["store_root"] = str(tmp_path)
    base.update(kw)
    return ServiceConfig(**base)


# ---------------------------------------------------------------------------
# HealthMonitor unit behavior
# ---------------------------------------------------------------------------
def test_fresh_monitor_is_ok():
    monitor = HealthMonitor(_config())
    assert monitor.evaluate(0, 32) == ("ok", [])
    assert not monitor.refusing()


def test_queue_pressure_degrades_but_does_not_refuse():
    # load is advisory: admission control 429s the excess per request,
    # so a busy queue must NOT flip the service into refusing everything
    monitor = HealthMonitor(_config())
    state, reasons = monitor.evaluate(30, 32)
    assert state == "degraded"
    assert any("queue" in r for r in reasons)
    assert not monitor.refusing()


def test_journal_failure_streak_is_a_fault():
    config = _config()
    monitor = HealthMonitor(config)
    for _ in range(config.journal_fail_threshold - 1):
        monitor.note_journal_failure()
    monitor.evaluate(0, 32)
    assert not monitor.refusing()
    monitor.note_journal_failure()
    state, reasons = monitor.evaluate(0, 32)
    assert state in ("degraded", "shedding")
    assert monitor.refusing()
    assert any("journal" in r for r in reasons)
    # one successful write heals the streak
    monitor.note_journal_ok()
    assert monitor.evaluate(0, 32) == ("ok", [])
    assert not monitor.refusing()


def test_deep_journal_failure_streak_sheds():
    config = _config()
    monitor = HealthMonitor(config)
    for _ in range(2 * config.journal_fail_threshold):
        monitor.note_journal_failure()
    state, _ = monitor.evaluate(0, 32)
    assert state == "shedding"
    assert monitor.refusing()


def test_slice_failure_rate_is_a_fault():
    monitor = HealthMonitor(_config())
    for ok in (True, True, True, False):  # 25% over a window of 4
        monitor.note_slice(ok)
    monitor.evaluate(0, 32)
    assert not monitor.refusing()
    monitor.note_slice(False)
    monitor.note_slice(False)  # now 50% of the window
    state, reasons = monitor.evaluate(0, 32)
    assert monitor.refusing()
    assert any("slice" in r for r in reasons)


def test_load_plus_fault_sheds():
    config = _config()
    monitor = HealthMonitor(config)
    for _ in range(config.journal_fail_threshold):
        monitor.note_journal_failure()
    state, reasons = monitor.evaluate(30, 32)
    assert state == "shedding"
    assert len(reasons) >= 2


# ---------------------------------------------------------------------------
# manager/server side effects
# ---------------------------------------------------------------------------
def test_fault_mode_sheds_submits_with_503_and_recovers(tmp_path):
    config = _config(tmp_path)
    req = RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                     seed=21, scale="small")
    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        manager = bg.server.manager
        client = ServiceClient(bg.url, tenant="tests")
        assert client.healthz()["ok"] is True

        for _ in range(config.journal_fail_threshold):
            manager.health.note_journal_failure()
        doc = client.healthz()
        assert doc["ok"] is False
        assert doc["state"] in ("degraded", "shedding")
        assert doc["retry_after"] > 0
        with pytest.raises(ServiceClientError) as info:
            client.submit(req)
        assert info.value.status == 503
        assert info.value.retry_after is not None
        assert manager.metrics.value("service.shed_health") >= 1

        manager.health.note_journal_ok()
        assert client.healthz()["ok"] is True
        final = client.wait(client.submit(req)["id"], timeout=60)
        assert final["state"] == "done"


def test_fault_mode_pauses_running_sessions_and_resumes_on_recovery(tmp_path):
    config = _config(tmp_path, slice_events=200, checkpoint_every_slices=4)
    req = RunRequest(workload="ida-3", strategy="RIPS", num_nodes=8,
                     seed=22, scale="small")
    direct = json.dumps(metrics_to_wire(Session.from_request(req).run()),
                        sort_keys=True)
    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        manager = bg.server.manager
        # slow each slice a little so the session is reliably mid-run
        manager.slice_hook = lambda rec, attempt: time.sleep(0.005)
        client = ServiceClient(bg.url, tenant="tests")
        sid = client.submit(req)["id"]

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.status(sid)["events_processed"] > 0:
                break
            time.sleep(0.01)
        for _ in range(config.journal_fail_threshold):
            manager.health.note_journal_failure()
        client.healthz()  # triggers _update_health -> auto-pause

        paused = False
        while time.monotonic() < deadline:
            state = client.status(sid)["state"]
            if state == "paused":
                paused = True
                break
            if state == "done":  # outran the pause request; still a pass
                break
            time.sleep(0.01)

        manager.health.note_journal_ok()
        client.healthz()  # triggers recovery -> auto-resume
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            doc = client.status(sid)
            if doc["state"] == "done":
                break
            time.sleep(0.02)
        assert doc["state"] == "done"
        if paused:
            assert doc["slices"] > 0
        # health detour or not, the result is bit-identical
        assert json.dumps(doc["metrics"], sort_keys=True) == direct


def test_cancelling_queued_sessions_releases_the_queue(tmp_path):
    """Regression: a session cancelled while waiting for an execution
    slot stayed counted as queued for the life of the process, so enough
    such cancels left /v1/healthz degraded on queue depth forever."""
    config = _config(tmp_path, max_inflight=1, queue_depth=4)
    gate = threading.Event()
    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        manager = bg.server.manager
        # hold the only slot until the queued sessions are cancelled
        manager.slice_hook = lambda rec, attempt: gate.wait(30)
        client = ServiceClient(bg.url, tenant="tests")
        first = client.submit(RunRequest(
            workload="queens-10", strategy="RIPS", num_nodes=8, seed=30,
            scale="small"))["id"]
        waiting = [client.submit(RunRequest(
            workload="queens-10", strategy="RIPS", num_nodes=8, seed=31 + i,
            scale="small"))["id"] for i in range(4)]

        deadline = time.monotonic() + 30
        while client.stats()["queued"] < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.stats()["queued"] == 4
        for sid in waiting:
            assert client.cancel(sid)["state"] == "cancelled"
        gate.set()
        assert client.wait(first, timeout=60)["state"] == "done"

        stats = client.stats()
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
        health = client.healthz()
        assert health["state"] == "ok", health["reasons"]
