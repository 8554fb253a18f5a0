"""Supervised slice execution: deadlines, retries, structured failures."""

import json
import time

import pytest

from repro.runner import RunRequest
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SessionFailed,
    serve_background,
)
from repro.service.manager import metrics_to_wire
from repro.session import Session
from repro.store import LocalDirStore


def _req(seed=1, **kw):
    base = dict(workload="queens-10", strategy="RIPS", num_nodes=8,
                seed=seed, scale="small")
    base.update(kw)
    return RunRequest(**base)


def _direct(req):
    return json.dumps(metrics_to_wire(Session.from_request(req).run()),
                      sort_keys=True)


def _config(tmp_path, **kw):
    base = dict(port=0, slice_events=300, quota_refill=1000.0,
                quota_tokens=10_000.0, use_result_cache=False,
                store_root=str(tmp_path), retry_seed=7)
    base.update(kw)
    return ServiceConfig(**base)


def test_hung_slice_times_out_and_retries_to_completion(tmp_path):
    config = _config(tmp_path, slice_deadline=0.3, slice_retries=2,
                     checkpoint_every_slices=2)
    req = _req(seed=11)
    fired = {"hang": False}

    def hook(rec, attempt):
        if not fired["hang"] and rec.slices >= 2 and attempt == 0:
            fired["hang"] = True
            time.sleep(0.9)  # 3x the deadline: a genuine hang

    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="tests")
        doc = client.submit(req)
        final = client.wait(doc["id"], timeout=60)
        assert fired["hang"]
        assert final["state"] == "done"
        assert bg.server.manager.metrics.value("service.slice_timeouts") >= 1
        # the retried run is bit-identical to a fault-free direct run
        assert json.dumps(final["metrics"], sort_keys=True) == _direct(req)


def test_poisoned_slice_fails_with_structured_error(tmp_path):
    config = _config(tmp_path, slice_retries=1, slice_backoff=0.01)

    def hook(rec, attempt):
        raise RuntimeError("poisoned slice")

    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="tests")
        doc = client.submit(_req(seed=12))
        with pytest.raises(SessionFailed) as info:
            client.wait(doc["id"], timeout=60)
        exc = info.value
        assert exc.code == "slice_failed"
        assert exc.error["attempts"] == 2  # 1 + slice_retries
        assert exc.error["attempt"] == 2
        assert "poisoned slice" in exc.message
        assert exc.session_id == doc["id"]
        # the terminal doc carries the same structured frame
        status = client.status(doc["id"])
        assert status["state"] == "failed"
        assert status["error"]["code"] == "slice_failed"


def test_transient_poison_recovers_and_publishes_retry_frame(tmp_path):
    config = _config(tmp_path, slice_retries=2, slice_backoff=0.01)
    req = _req(seed=13)
    fired = {"count": 0}

    def hook(rec, attempt):
        if rec.slices == 1 and attempt == 0:
            fired["count"] += 1
            raise RuntimeError("transient fault")

    with serve_background(config, store=LocalDirStore(tmp_path)) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="tests")
        doc = client.submit(req)
        frames = list(client.stream(doc["id"], timeout=60))
        final = client.wait(doc["id"], timeout=60)
        assert fired["count"] == 1
        assert final["state"] == "done"
        assert json.dumps(final["metrics"], sort_keys=True) == _direct(req)
        retries = [f for f in frames if f.get("type") == "retry"]
        if retries:  # stream may attach after the early retry already fired
            assert retries[0]["error"]["code"] == "slice_failed"
            assert retries[0]["attempt"] == 1


def test_failed_session_journal_keeps_checkpoint_for_forensics(tmp_path):
    # a failed session keeps its last auto-checkpoint (forensics);
    # a done session's auto-checkpoint is dropped
    config = _config(tmp_path, slice_retries=0, slice_backoff=0.01,
                     checkpoint_every_slices=2)
    store = LocalDirStore(tmp_path)
    poison = {"on": False}

    def hook(rec, attempt):
        if poison["on"] and rec.slices >= 4:
            raise RuntimeError("late poison")

    with serve_background(config, store=store) as bg:
        bg.server.manager.slice_hook = hook
        client = ServiceClient(bg.url, tenant="tests")
        ok_doc = client.submit(_req(seed=14))
        final = client.wait(ok_doc["id"], timeout=60)
        assert final["state"] == "done"
        poison["on"] = True
        bad_doc = client.submit(_req(seed=15))
        with pytest.raises(SessionFailed):
            client.wait(bad_doc["id"], timeout=60)
        keys = store.keys("sessions")
        assert not any(k.startswith(ok_doc["id"]) and "-auto-" in k
                       for k in keys)
        assert any(k.startswith(bad_doc["id"]) and "-auto-" in k
                   for k in keys)
