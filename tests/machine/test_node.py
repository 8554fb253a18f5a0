"""Tests for the node CPU model and message dispatch."""

import pytest

from repro.machine import LatencyModel, Machine, MeshTopology


def make_machine(**lat):
    defaults = dict(software_overhead=10e-6, per_hop=100e-6, per_byte=0.0,
                    per_byte_cpu=0.0)
    defaults.update(lat)
    return Machine(MeshTopology(2, 2), latency=LatencyModel(**defaults), seed=0)


def test_cpu_items_run_serially_and_accumulate_categories():
    m = make_machine()
    node = m.node(0)
    order = []
    node.exec_cpu(1e-3, "task", lambda: order.append(("t1", m.sim.now)))
    node.exec_cpu(2e-3, "overhead", lambda: order.append(("o1", m.sim.now)))
    node.exec_cpu(1e-3, "task", lambda: order.append(("t2", m.sim.now)))
    m.run()
    assert [o[0] for o in order] == ["t1", "o1", "t2"]
    assert order[0][1] == pytest.approx(1e-3)
    assert order[1][1] == pytest.approx(3e-3)
    assert order[2][1] == pytest.approx(4e-3)
    assert node.cpu_time["task"] == pytest.approx(2e-3)
    assert node.cpu_time["overhead"] == pytest.approx(2e-3)


def test_exec_cpu_rejects_bad_args():
    m = make_machine()
    with pytest.raises(ValueError):
        m.node(0).exec_cpu(-1.0, "task")
    with pytest.raises(ValueError):
        m.node(0).exec_cpu(1.0, "bogus")


def test_callback_enqueueing_more_work_is_safe():
    m = make_machine()
    node = m.node(0)
    done = []

    def first():
        node.exec_cpu(1e-3, "task", lambda: done.append(m.sim.now))

    node.exec_cpu(1e-3, "task", first)
    m.run()
    assert done == [pytest.approx(2e-3)]


def test_send_charges_sender_cpu_then_transits():
    m = make_machine(software_overhead=1e-3)
    got = []
    m.node(3).on("x", lambda msg: got.append(m.sim.now))
    m.node(0).send(3, "x")  # distance 2
    m.run()
    # 1ms send cpu + 2 hops * 100us wire + 1ms recv cpu
    assert got == [pytest.approx(1e-3 + 200e-6 + 1e-3)]
    assert m.node(0).cpu_time["overhead"] == pytest.approx(1e-3)
    assert m.node(3).cpu_time["overhead"] == pytest.approx(1e-3)


def test_dispatch_without_handler_raises():
    m = make_machine()
    m.node(0).send(1, "unknown-kind")
    with pytest.raises(RuntimeError, match="no handler"):
        m.run()


def test_handler_replacement():
    m = make_machine()
    got = []
    m.node(1).on("k", lambda msg: got.append("first"))
    m.node(1).on("k", lambda msg: got.append("second"))
    m.node(0).send(1, "k")
    m.run()
    assert got == ["second"]


def test_per_byte_cpu_charged_on_both_endpoints():
    m = make_machine(software_overhead=0.0, per_byte_cpu=1e-6)
    m.node(1).on("k", lambda msg: None)
    m.node(0).send(1, "k", size=1000)
    m.run()
    assert m.node(0).cpu_time["overhead"] == pytest.approx(1e-3)
    assert m.node(1).cpu_time["overhead"] == pytest.approx(1e-3)


def test_makespan_tracks_last_activity():
    m = make_machine()
    m.node(2).exec_cpu(5e-3, "task")
    m.node(1).exec_cpu(1e-3, "task")
    m.run()
    assert m.makespan() == pytest.approx(5e-3)
    assert m.cpu_time("task") == pytest.approx(6e-3)


def test_per_node_idle():
    m = make_machine()
    m.node(0).exec_cpu(4e-3, "task")
    m.node(1).exec_cpu(1e-3, "task")
    m.run()
    idle = m.per_node_idle()
    assert idle[0] == pytest.approx(0.0)
    assert idle[1] == pytest.approx(3e-3)
    assert idle[2] == pytest.approx(4e-3)


def test_machine_from_kind_string():
    m = Machine("mesh", num_nodes=8, seed=1)
    assert m.num_nodes == 8
    with pytest.raises(ValueError):
        Machine("mesh")
