"""``GET /v1/metrics``: the registry-backed service counters over the wire.

The endpoint speaks the shared ``repro.report/1`` envelope with an
embedded ``repro.metrics/1`` snapshot; ``ServiceClient.metrics()``
validates it strictly, so a schema drift fails here, not in a consumer.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import METRICS_SCHEMA, REPORT_SCHEMA
from repro.runner import RunRequest
from repro.service import ServiceClient, ServiceConfig
from repro.service.server import BackgroundServer
from repro.store import LocalDirStore


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(port=0, slice_events=300, quota_refill=1000.0,
                           quota_tokens=10_000.0)
    bg = BackgroundServer(config, store=LocalDirStore(tmp_path))
    bg.start()
    try:
        yield bg
    finally:
        bg.stop()


def _series(doc: dict) -> dict:
    return {e["name"]: e for e in doc["metrics"]["series"]}


def test_metrics_endpoint_roundtrip(server):
    client = ServiceClient(server.url, tenant="t1")
    doc = client.metrics()  # validate_report runs inside the client
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["kind"] == "service.metrics"
    assert doc["metrics"]["schema"] == METRICS_SCHEMA
    assert doc["data"]["health"] in ("ok", "degraded", "overloaded")
    series = _series(doc)
    # gauges exist from boot, before any traffic
    assert "service.sessions" in series
    assert series["service.uptime_s"]["value"] >= 0


def test_counters_advance_with_traffic(server):
    client = ServiceClient(server.url, tenant="t1")
    req = RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                     seed=1, scale="small")
    doc = client.submit(req)
    final = client.wait(doc["id"], timeout=120)
    assert final["state"] == "done"

    series = _series(client.metrics())
    assert series["service.submitted"]["value"] == 1
    assert series["service.submitted"]["kind"] == "counter"
    # the wait/exec histograms saw the session
    assert series["service.session_exec_s"]["count"] == 1
    assert series["service.session_exec_s"]["p50"] > 0
    assert series["service.session_wait_s"]["count"] == 1

    # a duplicate submit is served from cache and counted as such
    doc2 = client.submit(req)
    client.wait(doc2["id"], timeout=120)
    series = _series(client.metrics())
    assert series["service.submitted"]["value"] == 2
    assert series["service.cache_hits"]["value"] >= 1


def test_membership_counters_roll_up_epoch_logs(server):
    """A churn cell submitted over the wire lands its epoch log in the
    service.membership_* counters — and the conservation invariant shows
    up as membership_lost_tasks staying at zero."""
    from repro.faults import FaultPlan

    client = ServiceClient(server.url, tenant="t1")
    plan = FaultPlan.elastic(standby=(5,), joins=((5, 0.003),),
                             leaves=((3, 0.006),), elections=(0.008,),
                             seed=31)
    req = RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                     seed=1, scale="small", faults=plan)
    doc = client.submit(req)
    final = client.wait(doc["id"], timeout=120)
    assert final["state"] == "done"

    series = _series(client.metrics())
    assert series["service.membership_joins"]["value"] == 1
    assert series["service.membership_leaves"]["value"] == 1
    assert series["service.membership_elections"]["value"] >= 1
    epochs = series["service.membership_epochs"]["value"]
    assert epochs >= 3
    assert series["service.membership_lost_tasks"]["value"] == 0
