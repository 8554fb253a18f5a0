"""The Session front door: staging, forking, and the request path.

Bit-identity of checkpoint/restore lives in ``tests/snapshot``; this
file covers the API contract — lazy staged construction, fork
semantics, and ``from_request``, which with the keyed constructor makes
Session the single construction path.
"""

import pytest

from repro.obs import Tracer
from repro.runner import RunRequest
from repro.session import Session
from repro.snapshot import SnapshotError
from repro.tasks.trace import WorkloadTrace


def _sess(**kw):
    kw.setdefault("num_nodes", 8)
    kw.setdefault("scale", "small")
    return Session("queens-10", **kw)


def test_stages_advance_lazily():
    sess = _sess()
    assert sess.stage == "spec"
    machine = sess.machine  # touching .machine prepares
    assert sess.stage == "prepared"
    assert sess.machine is machine  # idempotent
    driver = sess.driver  # touching .driver wires
    assert sess.stage == "wired"
    assert sess.driver is driver
    assert sess.run() is not None


def test_repr_names_workload_strategy_and_stage():
    text = repr(_sess())
    assert "queens-10" in text and "RIPS" in text and "spec" in text


def test_run_trace_shim_is_gone():
    # the deprecation shim was retired: Session is the only entry point
    import repro
    import repro.balancers

    assert not hasattr(repro, "run_trace")
    assert not hasattr(repro.balancers, "run_trace")


def test_unknown_strategy_lists_available():
    with pytest.raises(KeyError, match="random"):
        _sess(strategy="does-not-exist").run()


def test_fork_before_wiring_selects_strategy():
    base = _sess().prepare()
    a = base.fork(strategy="random").run()
    b = base.fork(strategy="random").run()
    cold = _sess(strategy="random").run()
    assert a == b == cold
    # the base session is untouched and still runs its own strategy
    assert base.run() == _sess().run()


def test_fork_after_wiring_rejects_overrides():
    base = _sess()
    assert base.run(max_events=500) is None  # wired and mid-run
    clone = base.fork()  # plain fork of a wired session is fine
    assert clone.stage == "wired"
    with pytest.raises(SnapshotError, match="wired fork"):
        base.fork(strategy="random")


def test_fork_rejects_unknown_overrides():
    base = _sess().prepare()
    # a fork restores the parent's machine, so it cannot change the mesh
    # or the network: topology/contention must not be silently dropped
    for override in ({"frobnicate": True}, {"topology": "hypercube"},
                     {"contention": True}):
        with pytest.raises(TypeError, match="unknown fork overrides"):
            base.fork(**override)


def test_fork_can_attach_tracer():
    forked = _sess().prepare().fork(trace=True)
    assert isinstance(forked.tracer, Tracer)
    forked.run()
    assert len(forked.tracer.records) > 0


def test_from_request_round_trips_fields():
    req = RunRequest("queens-10", "RID", num_nodes=8, scale="small")
    sess = Session.from_request(req)
    assert (sess.workload, sess.strategy) == ("queens-10", "RID")
    assert sess.run() is not None


def test_from_request_applies_session_overrides():
    req = RunRequest(
        "queens-10", "RIPS", num_nodes=8, scale="small",
        session_overrides=(("contention", True),))
    sess = Session.from_request(req)
    assert sess.contention is True
    with_contention = sess.run()
    without = Session.from_request(
        RunRequest("queens-10", "RIPS", num_nodes=8, scale="small")).run()
    # contended links slow the run down; the override must reach the machine
    assert with_contention.T >= without.T


def test_from_request_rejects_unknown_overrides():
    req = RunRequest(
        "queens-10", "RIPS", num_nodes=8, scale="small",
        session_overrides=(("seed", 1),))
    with pytest.raises(ValueError, match="unsupported session_overrides"):
        Session.from_request(req)


def test_from_request_resolves_topology_case():
    from repro.core import RIPS
    from repro.core.schedulers import TreeWalkPlanner
    from repro.machine import TreeTopology

    req = RunRequest("queens-10", "RIPS", num_nodes=8, seed=77, scale="small",
                     topology_case="tree+walk")
    sess = Session.from_request(req)
    assert isinstance(sess.topology, TreeTopology)
    assert sess.topology.num_nodes == sess.num_nodes == 8
    assert sess.checkpoint().meta["topology_case"] == "tree+walk"
    # the label survives a pause, a checkpoint and a restore
    assert sess.run(max_events=300) is None
    resumed = Session.restore(sess.checkpoint()).run()
    assert resumed.extra["topology_case"] == "tree+walk"
    # the same run assembled by hand with the keyed constructor
    topo = TreeTopology(8, arity=2)
    by_hand = Session("queens-10", topology=topo, seed=77, scale="small",
                      strategy=RIPS("lazy", "any",
                                    planner=TreeWalkPlanner(topo))).run()
    assert "topology_case" not in by_hand.extra
    by_hand.extra["topology_case"] = "tree+walk"
    assert resumed == by_hand


def test_topology_case_fixes_strategy_topology_and_faults():
    from repro.faults import FaultPlan

    base = dict(num_nodes=8, scale="small", topology_case="mesh+MWA")
    for req in (
        RunRequest("queens-10", "RID", **base),
        RunRequest("queens-10", "RIPS", **base,
                   session_overrides=(("topology", "hypercube"),)),
    ):
        with pytest.raises(ValueError, match="topology case fixes"):
            Session.from_request(req)
    with pytest.raises(ValueError, match="fault plans apply only"):
        Session.from_request(RunRequest("queens-10", "RIPS", **base,
                                        faults=FaultPlan.lossy(0.01)))
    with pytest.raises(KeyError, match="unknown topology case"):
        Session.from_request(RunRequest("queens-10", "RIPS", num_nodes=8,
                                        topology_case="ring+nothing"))


def test_session_accepts_prebuilt_trace():
    from repro.experiments.common import workload

    trace = workload("queens-10", "small").build(8)
    sess = Session(trace, strategy="RIPS", num_nodes=8, scale="small")
    assert isinstance(sess.workload, WorkloadTrace)
    got, ref = sess.run(), _sess().run()
    ref.extra.pop("workload_label")  # a bare trace has no display label
    assert got == ref


def test_bare_machine_snapshot_refused():
    """A Machine.checkpoint() without a trace root cannot become a
    Session — the error says how to do it right."""
    from repro.experiments.common import make_machine

    snap = make_machine(8).checkpoint()
    with pytest.raises(SnapshotError, match="Session.checkpoint"):
        Session.restore(snap)


def test_checkpoint_meta_describes_the_session():
    sess = _sess()
    snap = sess.checkpoint()
    meta = snap.meta
    assert meta["kind"] == "session"
    assert meta["stage"] == "prepared"
    assert meta["workload_key"] == "queens-10"
    assert meta["num_nodes"] == 8
    assert meta["started"] is False
    sess.run(max_events=500)
    assert sess.checkpoint().meta["started"] is True


def test_topology_instance_fixes_num_nodes():
    # an 8x8 mesh is a 64-node machine: the trace, RID's tuning and the
    # checkpoint meta must all see 64 nodes, not the 32-node default
    from repro.machine import MeshTopology

    sess = Session("gromos-8", topology=MeshTopology(8, 8), strategy="RID",
                   scale="small")
    assert sess.num_nodes == 64
    homes = {t.home for t in sess.prepare()._trace.tasks if t.home is not None}
    assert max(homes) >= 32
    assert sess.checkpoint().meta["num_nodes"] == 64
    got = sess.run()
    assert got == Session("gromos-8", strategy="RID", num_nodes=64,
                          scale="small").run()
    ida = Session("ida-3", topology=MeshTopology(8, 8), strategy="RID",
                  scale="small")
    assert ida.driver.strategy.update_factor == 0.7


def test_conflicting_num_nodes_and_topology_refused():
    from repro.machine import MeshTopology

    with pytest.raises(ValueError, match="16 nodes"):
        Session("queens-10", topology=MeshTopology(4, 4), num_nodes=8)
    # an agreeing explicit value is fine, and so is a kind string
    assert Session("queens-10", topology=MeshTopology(4, 4),
                   num_nodes=16).num_nodes == 16
    assert Session("queens-10", topology="hypercube").num_nodes == 32
