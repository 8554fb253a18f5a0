"""The ok -> degraded -> shedding health machine and its side effects."""

import asyncio
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
    SessionManager,
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


# ---------------------------------------------------------------------------
# fault mode ends on its own, and parks every session it should
# ---------------------------------------------------------------------------
class _JournalOutage(LocalDirStore):
    """A store whose journal puts fail while ``down`` is set."""

    down = False

    def put(self, ns, key, data):
        if self.down and key.startswith("journal-"):
            raise OSError("journal volume unavailable")
        return super().put(ns, key, data)


class _FullDisk(LocalDirStore):
    """A store that takes no writes at all."""

    def put(self, ns, key, data):
        raise OSError("no space left on device")


def _ida(seed):
    return RunRequest(workload="ida-3", strategy="RIPS", num_nodes=8,
                      seed=seed, scale="small")


def _wire(metrics):
    return json.dumps(metrics_to_wire(metrics), sort_keys=True)


async def _until(predicate, timeout=30.0, probe=None):
    """Poll ``predicate`` (calling ``probe`` between polls) until it
    holds or ``timeout`` seconds pass; returns whether it held."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        if probe is not None:
            probe()
        await asyncio.sleep(0.01)
    return True


def test_journal_outage_that_ends_leaves_fault_mode(tmp_path):
    """Regression: parked sessions write nothing, so a journal streak
    tripped by a store outage stayed tripped after the store came back —
    /v1/healthz said degraded and the session stayed paused until a
    restart."""
    store = _JournalOutage(tmp_path)
    req = _ida(23)
    direct = _wire(Session.from_request(req).run())

    async def main():
        manager = SessionManager(
            _config(tmp_path, slice_events=200, checkpoint_every_slices=2),
            store=store)
        store.down = True
        rec = manager.submit("tests", req)
        # its admission, start and first auto-checkpoint entries never
        # reach the store: the streak trips and the session parks
        assert await _until(lambda: rec.state == "paused",
                            probe=manager.health_doc)
        assert manager.health.refusing()

        store.down = False
        for _ in range(30):
            doc = manager.health_doc()
            if doc["ok"]:
                break
            await asyncio.sleep(0.1)
        assert doc["ok"] and doc["state"] == "ok", doc
        assert await _until(lambda: rec.state == "done", timeout=60)
        assert _wire(rec.metrics) == direct
        await manager.shutdown()

    asyncio.run(main())


def test_journal_outage_that_ends_resumes_sessions_unprobed(tmp_path):
    """Regression: a session parked by a journal outage re-tested the
    store once, on its own way out; once the store came back nothing
    re-tested it unless a client probed /v1/healthz, so the session
    stayed paused."""
    store = _JournalOutage(tmp_path)
    req = _ida(33)
    direct = _wire(Session.from_request(req).run())

    async def main():
        # the streak trips at 4 failures; the park and its re-test add 3
        # more: 7 is under 2 * 4, so the state is degraded (re-test: 2 s)
        manager = SessionManager(
            _config(tmp_path, slice_events=200, checkpoint_every_slices=2,
                    journal_fail_threshold=4),
            store=store)
        store.down = True
        rec = manager.submit("tests", req)
        assert await _until(lambda: rec.state == "paused")
        assert manager.health.refusing()

        store.down = False  # nothing probes from here on
        assert await _until(lambda: rec.state == "done", timeout=60)
        assert _wire(rec.metrics) == direct
        assert manager.health_doc()["ok"]
        await manager.shutdown()

    asyncio.run(main())


def test_store_wide_outage_degrades_but_sessions_finish(tmp_path):
    """Regression: with every put failing (a full disk), each session
    reaching a slice boundary under the tripped journal streak tried to
    park, could not write its checkpoint, and failed — a full disk must
    degrade the service, not fail simulations held in memory."""
    reqs = [_ida(34), RunRequest(workload="queens-10", strategy="RIPS",
                                 num_nodes=8, seed=35, scale="small")]
    direct = [_wire(Session.from_request(req).run()) for req in reqs]

    async def main():
        manager = SessionManager(
            _config(tmp_path, max_inflight=1, slice_events=200),
            store=_FullDisk(tmp_path))
        # the second waits for the only slot, then starts under the fault
        recs = [manager.submit("tests", req) for req in reqs]
        assert await _until(
            lambda: all(r.state not in ("queued", "running") for r in recs),
            timeout=60)
        assert [r.state for r in recs] == ["done", "done"]
        assert [_wire(r.metrics) for r in recs] == direct
        assert manager.health.refusing()
        await manager.shutdown()

    asyncio.run(main())


@pytest.mark.parametrize("probing", [True, False], ids=["probed", "unprobed"])
def test_one_poisoned_cell_does_not_strand_later_sessions(tmp_path, probing):
    """Regression: a failed cell left the slice window at [F, F, F]; the
    next healthy session's first slices tipped it past a 50% failure
    rate, the session was parked, and the window — fed only by slices —
    never changed again, so every later submit got 503.  Unprobed, the
    session that frees the last execution slot re-tests health itself."""
    healthy = _ida(25)
    direct = _wire(Session.from_request(healthy).run())

    async def main():
        manager = SessionManager(
            _config(tmp_path, slice_events=200, slice_backoff=0.01),
            store=LocalDirStore(tmp_path))
        bad = manager.submit("tests", RunRequest(
            workload="queens-10", strategy="RIPS", num_nodes=8, seed=24,
            scale="small"))

        def hook(rec, attempt):
            if rec.id == bad.id:
                raise RuntimeError("poisoned cell")
            if rec.slices < 8:
                time.sleep(0.02)  # let a probe see each early boundary

        manager.slice_hook = hook
        assert await _until(lambda: bad.state == "failed")
        assert list(manager.health.slice_window) == [False] * 3

        rec = manager.submit("tests", healthy)
        assert await _until(lambda: rec.state == "done", timeout=60,
                            probe=manager.health_doc if probing else None)
        assert _wire(rec.metrics) == direct
        assert manager.health_doc()["ok"]
        later = manager.submit("tests", _ida(26))  # not shed with 503
        assert await _until(lambda: later.state == "done", timeout=60)
        await manager.shutdown()

    asyncio.run(main())


def test_poisoned_session_failing_last_resumes_the_parked_one(tmp_path):
    """Regression: a healthy session parked while a poisoned one held the
    other execution slot stayed parked once the poisoned one failed —
    the freed-slot re-test was skipped when the session raised, and
    without a probe nothing else re-tested health."""
    healthy = _ida(31)
    direct = _wire(Session.from_request(healthy).run())
    gate = threading.Event()

    async def main():
        manager = SessionManager(
            _config(tmp_path, slice_events=200, slice_retries=0),
            store=LocalDirStore(tmp_path))
        rec = manager.submit("tests", healthy)
        bad = manager.submit("tests", RunRequest(
            workload="queens-10", strategy="RIPS", num_nodes=8, seed=32,
            scale="small"))

        def hook(r, attempt):
            if r.id == bad.id:
                gate.wait(30)
                raise RuntimeError("poisoned cell")

        manager.slice_hook = hook
        assert await _until(lambda: rec.slices > 0 and bad.state == "running")
        for _ in range(manager.health.slice_window.maxlen):
            manager.health.note_slice(False)
        assert await _until(lambda: rec.state == "paused")
        gate.set()  # the poisoned session fails last; nothing probes
        assert await _until(lambda: bad.state == "failed")
        assert await _until(lambda: rec.state == "done", timeout=60)
        assert _wire(rec.metrics) == direct
        assert manager.health_doc()["ok"]
        await manager.shutdown()

    try:
        asyncio.run(main())
    finally:
        gate.set()


def test_health_parked_session_is_readmitted_after_restart(tmp_path):
    """Regression: only memory knew that the health machine, not the
    client, had paused a session, so after a restart ``recover()``
    counted it as paused and it stayed paused for good."""
    store = LocalDirStore(tmp_path)
    req = _ida(27)
    direct = _wire(Session.from_request(req).run())
    config = _config(tmp_path, slice_events=200)
    gate = threading.Event()

    async def main():
        first = SessionManager(config, store=store)
        rec = first.submit("tests", req)
        # a second session holds an execution slot through the fault, so
        # the slice window stays live evidence and the first stays parked
        busy = first.submit("tests", _ida(30))
        first.slice_hook = (
            lambda r, attempt: r.id == busy.id and gate.wait(30))
        assert await _until(lambda: rec.slices > 0 and busy.state == "running")
        for _ in range(first.health.slice_window.maxlen):
            first.health.note_slice(False)
        assert first.health_doc()["ok"] is False
        assert await _until(lambda: rec.state == "paused")
        # the server dies with the session parked; cancelling the busy
        # session on the way out must not resume the parked one
        await first.shutdown()
        assert rec.state == "paused"
        gate.set()

        second = SessionManager(config, store=store)
        summary = second.recover()
        assert (summary["resumed"], summary["paused"]) == (1, 0)
        again = second.records[rec.id]
        assert await _until(lambda: again.state == "done", timeout=60)
        assert _wire(again.metrics) == direct
        await second.shutdown()

    try:
        asyncio.run(main())
    finally:
        gate.set()


def test_session_admitted_during_fault_mode_parks_before_running(tmp_path):
    """Regression: fault mode flagged only the sessions running when it
    began, so a session that got its execution slot later ran to done
    while the service was refusing work."""
    store = _JournalOutage(tmp_path)
    gate = threading.Event()

    async def main():
        manager = SessionManager(
            _config(tmp_path, max_inflight=1, slice_events=200,
                    checkpoint_every_slices=0),
            store=store)
        # from here on journal puts fail: the two admissions and the
        # first session's start trip the streak
        store.down = True
        first = manager.submit("tests", _ida(28))
        second = manager.submit("tests", RunRequest(
            workload="queens-10", strategy="RIPS", num_nodes=8, seed=29,
            scale="small"))
        manager.slice_hook = (
            lambda rec, attempt: rec.id == first.id and gate.wait(30))
        assert await _until(lambda: first.state == "running")
        assert manager.health_doc()["ok"] is False

        gate.set()
        assert await _until(
            lambda: second.state not in ("queued", "running"), timeout=60)
        assert (first.state, second.state) == ("paused", "paused")
        assert manager.health.refusing()

        store.down = False
        assert await _until(
            lambda: first.state == second.state == "done", timeout=60,
            probe=manager.health_doc)
        await manager.shutdown()

    try:
        asyncio.run(main())
    finally:
        gate.set()
