"""End-to-end tests of the scheduling service.

Every test runs a real server (asyncio loop on a daemon thread,
ephemeral port) and drives it with the blocking client over actual
sockets — HTTP for the control plane, WebSocket for the frame stream.
The simulation cells are the small-scale N-Queens workloads, so a full
submit -> stream -> result cycle is sub-second.
"""

import json
import threading
import time

import pytest

from repro.obs.export import trace_to_jsonl
from repro.runner import ResultCache, RunRequest, execute_request
from repro.service import ServiceClient, ServiceClientError, ServiceConfig
from repro.service.manager import metrics_to_wire
from repro.service.server import BackgroundServer
from repro.session import Session
from repro.store import LocalDirStore


def _req(seed=1, **kw):
    kw.setdefault("workload", "queens-10")
    kw.setdefault("strategy", "RIPS")
    kw.setdefault("num_nodes", 8)
    kw.setdefault("scale", "small")
    return RunRequest(seed=seed, **kw)


@pytest.fixture()
def server(tmp_path):
    """A live server on an ephemeral port, blob store in tmp."""
    config = ServiceConfig(port=0, slice_events=300, quota_refill=1000.0,
                           quota_tokens=10_000.0)
    bg = BackgroundServer(config, store=LocalDirStore(tmp_path))
    bg.start()
    try:
        yield bg
    finally:
        bg.stop()


def _client(server, tenant="tests"):
    return ServiceClient(server.url, tenant=tenant)


# ----------------------------------------------------------------------
# the core loop: submit -> stream -> result
# ----------------------------------------------------------------------
def test_submit_stream_result_matches_direct_run(server):
    req = _req()
    direct = metrics_to_wire(Session.from_request(req).run())

    client = _client(server)
    doc = client.submit(req)
    assert doc["state"] in ("queued", "running")

    frames = list(client.stream(doc["id"], timeout=120))
    types = [f["type"] for f in frames]
    assert types[0] == "hello"
    assert "progress" in types          # live frames, not just a result
    assert types[-1] == "result"
    # progress frames carry the live counters the ops story needs
    progress = next(f for f in frames if f["type"] == "progress")
    assert progress["events_processed"] > 0
    assert progress["events_per_sec"] > 0
    # frame seq is monotone
    seqs = [f["seq"] for f in frames if "seq" in f]
    assert seqs == sorted(seqs)

    served = frames[-1]["metrics"]
    assert json.dumps(served, sort_keys=True) == \
        json.dumps(direct, sort_keys=True)


def test_traced_progress_frames_summarise_each_slice(server):
    req = _req(trace=True)
    direct = Session.from_request(req)
    direct.run()
    view = [json.loads(line) for line in trace_to_jsonl(direct.tracer)]

    client = _client(server)
    frames = list(client.stream(client.submit(req)["id"], timeout=120))
    blocks = [f["trace"] for f in frames if f["type"] == "progress"]
    assert blocks
    for block in blocks:
        assert 0 < block["records"] <= len(view) and block["dropped"] == 0
        new = view[block["records"] - block["new"]:block["records"]]
        assert block["counters"] == {
            f"{r['cat']}:{r['name']}": r["value"] for r in new if r["ph"] == "C"}
        assert block["phases"] == [
            {"name": r["name"], "node": r["node"], "t": r["t"], "dur": r["dur"]}
            for r in new if r["ph"] == "X" and r["cat"] == "phase"][-8:]


def test_status_and_listing(server):
    client = _client(server)
    doc = client.run(_req(seed=2))
    assert doc["state"] == "done"
    assert doc["metrics"]["T"] > 0
    listed = client.sessions()
    assert any(s["id"] == doc["id"] for s in listed)
    stats = client.stats()
    assert stats["submitted"] >= 1
    assert "store" in stats


# ----------------------------------------------------------------------
# pause / resume / fork: the snapshot story over the wire
# ----------------------------------------------------------------------
def test_pause_fork_resume_bit_identical(server):
    req = _req(seed=3)
    direct = metrics_to_wire(Session.from_request(req).run())

    client = _client(server)
    sid = client.submit(req)["id"]
    paused = client.pause(sid)
    assert paused["state"] == "paused"
    assert paused["checkpoint"]
    assert 0 < paused["events_processed"]

    fork_a = client.fork(sid)
    fork_b = client.fork(sid)
    assert fork_a["parent"] == sid and fork_b["parent"] == sid
    assert len({fork_a["id"], fork_b["id"], sid}) == 3

    client.resume(sid)
    outcomes = [client.wait(s, timeout=120)
                for s in (sid, fork_a["id"], fork_b["id"])]
    for done in outcomes:
        assert done["state"] == "done"
        assert json.dumps(done["metrics"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)


def test_pause_conflicts_are_409(server):
    client = _client(server)
    done = client.run(_req(seed=4))
    with pytest.raises(ServiceClientError) as exc_info:
        client.pause(done["id"])
    assert exc_info.value.status == 409
    with pytest.raises(ServiceClientError) as exc_info:
        client.fork(done["id"])  # fork needs a paused checkpoint
    assert exc_info.value.status == 409


# ----------------------------------------------------------------------
# load discipline
# ----------------------------------------------------------------------
def test_quota_rejection_is_429_with_retry_after(tmp_path):
    config = ServiceConfig(port=0, slice_events=300,
                           quota_tokens=2.0, quota_refill=0.01)
    with BackgroundServer(config, store=LocalDirStore(tmp_path)) as bg:
        greedy = ServiceClient(bg.url, tenant="greedy")
        greedy.submit(_req(seed=10))
        greedy.submit(_req(seed=11))
        with pytest.raises(ServiceClientError) as exc_info:
            greedy.submit(_req(seed=12))
        err = exc_info.value
        assert err.status == 429
        assert err.retry_after is not None and err.retry_after >= 1
        assert "greedy" in str(err)
        # quotas are per-tenant: another tenant still schedules
        other = ServiceClient(bg.url, tenant="frugal")
        assert other.submit(_req(seed=13))["state"] in ("queued", "running")
        assert bg.server.manager.stats()["rejected_quota"] == 1


def test_admission_backpressure_sheds_load(tmp_path):
    config = ServiceConfig(port=0, slice_events=50,
                           max_inflight=1, queue_depth=2)
    with BackgroundServer(config, store=LocalDirStore(tmp_path)) as bg:
        client = ServiceClient(bg.url)
        accepted, rejected = [], []
        for seed in range(20, 26):  # 6 unique cells into 1+2 slots
            try:
                accepted.append(client.submit(_req(seed=seed))["id"])
            except ServiceClientError as err:
                assert err.status == 429
                assert err.retry_after is not None
                rejected.append(err)
        assert len(accepted) == 3
        assert len(rejected) == 3
        # shedding, not stalling: the loop still answers immediately
        assert client.healthz()["ok"] is True
        # the accepted sessions all finish
        for sid in accepted:
            assert client.wait(sid, timeout=120)["state"] == "done"


def test_concurrent_clients_ride_out_admission_429s(tmp_path):
    # 1 running + 1 queued slot.  Two occupant cells fill both, and the
    # gate holds the running one inside its first slice until every
    # client has been shed once, so the 429s do not depend on thread timing
    config = ServiceConfig(port=0, slice_events=300, max_inflight=1,
                           queue_depth=1, quota_refill=1000.0,
                           quota_tokens=10_000.0)
    gate = threading.Event()
    with BackgroundServer(config, store=LocalDirStore(tmp_path)) as bg:
        bg.server.manager.slice_hook = lambda rec, attempt: gate.wait(60)
        client = ServiceClient(bg.url)
        occupants = [_req(seed=60), _req(seed=61)]
        occupant_ids = [client.submit(req)["id"] for req in occupants]

        cells = [_req(seed=70 + i) for i in range(4)]
        shed_once = [threading.Event() for _ in cells]
        rejected: list = []
        finals: dict = {}
        errors: list = []

        def ride(i):
            try:
                while True:
                    try:
                        finals[i] = client.run(cells[i], timeout=120)
                        return
                    except ServiceClientError as err:
                        if err.status != 429:
                            raise
                        rejected.append(err.retry_after)
                        shed_once[i].set()
                        # Retry-After, capped to keep the test short
                        time.sleep(min(0.2, err.retry_after or 0.05))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((i, exc))
                shed_once[i].set()

        threads = [threading.Thread(target=ride, args=(i,))
                   for i in range(len(cells))]
        for t in threads:
            t.start()
        try:
            assert all(ev.wait(60) for ev in shed_once)
        finally:
            gate.set()
        for t in threads:
            t.join(timeout=180)
        assert not any(t.is_alive() for t in threads)
        assert not errors

        done = [finals[i] for i in range(len(cells))] + [
            client.wait(sid, timeout=120) for sid in occupant_ids]
        for req, final in zip(cells + occupants, done):
            assert final["state"] == "done"
            assert json.dumps(final["metrics"], sort_keys=True) == \
                json.dumps(metrics_to_wire(execute_request(req)),
                           sort_keys=True)
        # every 429 a client counted is one the server counted, and each
        # client was shed at least once
        assert None not in rejected
        series = {e["name"]: e for e in client.metrics()["metrics"]["series"]}
        assert series["service.rejected_admission"]["value"] == len(rejected)
        assert len(rejected) >= len(cells)


def test_coalescing_deduplicates_identical_submits(server):
    client = _client(server)
    req = _req(seed=30, trace=True)  # traced: no result-cache shortcut
    first = client.submit(req)
    second = client.submit(req)
    assert second["id"] == first["id"]
    assert second["coalesced"] == 1
    solo = client.submit(_req(seed=31, trace=True), coalesce=False)
    assert solo["id"] != first["id"]
    for sid in (first["id"], solo["id"]):
        assert client.wait(sid, timeout=120)["state"] == "done"


def test_finished_cells_served_from_result_cache(server):
    client = _client(server)
    req = _req(seed=32)
    done = client.run(req)
    assert done["state"] == "done" and not done["from_cache"]
    again = client.submit(req)
    assert again["state"] == "done"
    assert again["from_cache"] is True
    assert json.dumps(again["metrics"], sort_keys=True) == \
        json.dumps(done["metrics"], sort_keys=True)


def test_topology_cell_runs_its_case_and_caches_it(server, tmp_path):
    # the service builds a cross-topology cell through the same request
    # path as the runner, so the shared result cache holds the tree run,
    # labelled, under the tree+walk key
    req = _req(seed=1234, topology_case="tree+walk")
    direct = json.dumps(metrics_to_wire(execute_request(req)), sort_keys=True)
    done = _client(server).run(req)
    assert done["state"] == "done"
    assert done["metrics"]["extra"]["topology_case"] == "tree+walk"
    assert json.dumps(done["metrics"], sort_keys=True) == direct
    cached = ResultCache(store=LocalDirStore(tmp_path)).get(req)
    assert cached is not None
    assert json.dumps(metrics_to_wire(cached), sort_keys=True) == direct


# ----------------------------------------------------------------------
# concurrency: the >= 8 live streaming sessions criterion
# ----------------------------------------------------------------------
def test_eight_concurrent_sessions_stream_live_frames(tmp_path):
    # slice_events=10 -> hundreds of slices per cell, so every session
    # is still mid-run (and publishing frames) when its subscriber
    # attaches, even with all eight running concurrently
    config = ServiceConfig(port=0, slice_events=10, max_inflight=8)
    with BackgroundServer(config, store=LocalDirStore(tmp_path)) as bg:
        client = ServiceClient(bg.url)
        sids = [client.submit(_req(seed=40 + i, workload="queens-12"))["id"]
                for i in range(8)]
        assert len(set(sids)) == 8

        collected: dict[str, list] = {}
        errors: list = []

        def consume(sid):
            try:
                collected[sid] = list(client.stream(sid, timeout=180))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((sid, exc))

        threads = [threading.Thread(target=consume, args=(sid,))
                   for sid in sids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors
        for sid in sids:
            frames = collected[sid]
            assert any(f["type"] == "progress" for f in frames), \
                f"session {sid} streamed no live progress frames"
            assert frames[-1]["type"] == "result"
            assert frames[-1]["metrics"]["T"] > 0


# ----------------------------------------------------------------------
# the batch path
# ----------------------------------------------------------------------
def test_grid_runs_cells_through_the_executor(server):
    reqs = [_req(seed=50), _req(seed=51)]
    direct = [metrics_to_wire(Session.from_request(r).run()) for r in reqs]
    client = _client(server)
    report = client.grid(reqs)
    assert report["cells"] == 2
    assert [m["T"] for m in report["results"]] == [m["T"] for m in direct]
    # a second identical grid is pure cache
    again = client.grid(reqs)
    assert again["cache_hits"] == 2 and again["executed"] == 0


# ----------------------------------------------------------------------
# protocol edges
# ----------------------------------------------------------------------
def test_wire_errors_are_400_with_field_names(server):
    client = _client(server)
    status, doc, _headers = client._request(
        "POST", "/v1/sessions",
        {"api_version": 1, "workload": "w", "strategy": "s", "nodes": 4})
    assert status == 400
    assert "nodes" in doc["error"]


def test_unknown_session_is_404(server):
    client = _client(server)
    with pytest.raises(ServiceClientError) as exc_info:
        client.status("no-such-session")
    assert exc_info.value.status == 404


def test_unknown_route_is_404_and_bad_json_is_400(server):
    client = _client(server)
    status, _doc, _h = client._request("GET", "/v2/teapot")
    assert status == 404
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("POST", "/v1/sessions", body=b"{oops",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400
    finally:
        conn.close()


def test_events_endpoint_requires_websocket(server):
    client = _client(server)
    sid = client.run(_req(seed=60))["id"]
    status, doc, _h = client._request("GET", f"/v1/sessions/{sid}/events")
    assert status == 426
    assert "websocket" in doc["error"].lower()


def test_late_subscriber_gets_terminal_replay(server):
    client = _client(server)
    done = client.run(_req(seed=61))
    frames = list(client.stream(done["id"], timeout=60))
    assert frames[0]["type"] == "hello"
    assert frames[-1]["type"] == "result"
    assert frames[-1]["metrics"]["T"] > 0


def test_stream_of_a_cancelled_session_ends_with_its_state_frame(tmp_path):
    """Regression: the client took the ``hello`` frame of a cancelled or
    failed session for the end of the stream, so ``stream()`` yielded
    only the hello and never the terminal state frame sent next."""
    config = ServiceConfig(port=0, max_inflight=1, slice_events=300,
                           quota_refill=1000.0, quota_tokens=10_000.0,
                           use_result_cache=False)
    gate = threading.Event()
    bg = BackgroundServer(config, store=LocalDirStore(tmp_path)).start()
    try:
        bg.server.manager.slice_hook = lambda rec, attempt: gate.wait(30)
        client = _client(bg)
        client.submit(_req(seed=63))  # holds the only execution slot
        sid = client.submit(_req(seed=64))["id"]
        assert client.cancel(sid)["state"] == "cancelled"
        frames = list(client.stream(sid, timeout=30))
        assert [f["type"] for f in frames] == ["hello", "state"]
        assert frames[-1]["state"] == "cancelled"
    finally:
        gate.set()
        bg.stop()


def test_cancel_stops_a_session(server):
    client = _client(server)
    sid = client.submit(_req(seed=62))["id"]
    doc = client.cancel(sid)
    assert doc["state"] in ("cancelled", "done")  # done if it won the race
