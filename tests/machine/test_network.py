"""Tests for the network transports and cost models."""

import pickle

import pytest

from repro.machine.event import Simulator
from repro.machine.message import Message, task_message_bytes
from repro.machine.network import (
    ContentionNetwork,
    IdealNetwork,
    LatencyModel,
    PARAGON_LIKE,
)
from repro.machine.topology import MeshTopology, TorusTopology, hop_table


def _collect(sim, topo, latency, cls):
    delivered = []
    net = cls(sim, topo, latency, lambda m: delivered.append((sim.now, m)))
    return net, delivered


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(per_hop=-1.0)
    with pytest.raises(ValueError):
        LatencyModel(per_byte_cpu=-1e-9)


def test_wormhole_latency_formula():
    lat = LatencyModel(software_overhead=0, per_hop=10e-6, per_byte=1e-6)
    assert lat.wormhole_latency(3, 100) == pytest.approx(30e-6 + 100e-6)
    # minimum one hop even for adjacent-rank shortcuts
    assert lat.wormhole_latency(0, 0) == pytest.approx(10e-6)


def test_endpoint_cpu_includes_copy_cost():
    lat = LatencyModel(software_overhead=5e-6, per_byte_cpu=1e-8)
    assert lat.endpoint_cpu(1000) == pytest.approx(5e-6 + 1e-5)


def test_ideal_network_delivery_time():
    sim = Simulator()
    topo = MeshTopology(4, 4)
    lat = LatencyModel(software_overhead=0, per_hop=1e-3, per_byte=0)
    net, delivered = _collect(sim, topo, lat, IdealNetwork)
    net.transmit(Message(0, 15, "m", size=10))  # distance 3+3=6
    sim.run()
    assert len(delivered) == 1
    t, msg = delivered[0]
    assert t == pytest.approx(6e-3)
    assert msg.payload is None and msg.dest == 15


def test_ideal_network_loopback_is_immediate_but_async():
    sim = Simulator()
    topo = MeshTopology(2, 2)
    net, delivered = _collect(sim, topo, PARAGON_LIKE, IdealNetwork)
    net.transmit(Message(1, 1, "self"))
    assert delivered == []  # not synchronous
    sim.run()
    assert len(delivered) == 1 and delivered[0][0] == 0.0


@pytest.mark.parametrize("dest", [-2, 16])
def test_ideal_network_rejects_out_of_range_rank(dest):
    """A hop-table lookup must not wrap a negative rank (such as the -2
    "no parent" sentinel) into a valid one: out-of-range ranks raise the
    topology's own ValueError, and nothing is recorded or scheduled."""
    sim = Simulator()
    topo = MeshTopology(4, 4)
    net, delivered = _collect(sim, topo, PARAGON_LIKE, IdealNetwork)
    with pytest.raises(ValueError, match="out of range"):
        net.transmit(Message(0, dest, "m"))
    with pytest.raises(ValueError, match="out of range"):
        net.transmit(Message(dest, 0, "m"))
    sim.run()
    assert delivered == [] and net.stats.messages == 0


def test_hop_table_is_shared_per_shape_and_never_pickled():
    a, b = MeshTopology(8, 4), MeshTopology(8, 4)
    assert hop_table(a) is hop_table(b)
    assert hop_table(TorusTopology(8, 4)) is not hop_table(a)
    delivered = []
    net = IdealNetwork(Simulator(), a, PARAGON_LIKE, delivered.append)
    net.transmit(Message(0, 31, "m"))
    assert "_hops" not in net.__getstate__()
    clone = pickle.loads(pickle.dumps(net))
    assert clone._hops is hop_table(a)


def test_network_stats_accumulate():
    sim = Simulator()
    topo = MeshTopology(2, 2)
    net, _ = _collect(sim, topo, PARAGON_LIKE, IdealNetwork)
    net.transmit(Message(0, 3, "m", size=100), tasks_carried=5)
    net.transmit(Message(0, 1, "m", size=50), tasks_carried=0)
    net.transmit(Message(2, 2, "m", size=50))  # loopback: not counted
    sim.run()
    assert net.stats.messages == 2
    assert net.stats.bytes == 150
    assert net.stats.message_hops == 2 + 1
    assert net.stats.task_hops == 5 * 2


def test_contention_network_serializes_link():
    sim = Simulator()
    topo = MeshTopology(1, 2)
    lat = LatencyModel(software_overhead=0, per_hop=1e-3, per_byte=0)
    net, delivered = _collect(sim, topo, lat, ContentionNetwork)
    # two messages over the same directed link back-to-back
    net.transmit(Message(0, 1, "a"))
    net.transmit(Message(0, 1, "b"))
    sim.run()
    times = [t for t, _ in delivered]
    assert times[0] == pytest.approx(1e-3)
    assert times[1] == pytest.approx(2e-3)  # queued behind the first


def test_contention_network_store_and_forward_accumulates_per_hop():
    sim = Simulator()
    topo = MeshTopology(1, 4)
    lat = LatencyModel(software_overhead=0, per_hop=1e-3, per_byte=1e-6)
    net, delivered = _collect(sim, topo, lat, ContentionNetwork)
    net.transmit(Message(0, 3, "m", size=100))
    sim.run()
    # 3 hops, each (1e-3 + 100e-6)
    assert delivered[0][0] == pytest.approx(3 * (1e-3 + 1e-4))


def test_contention_disjoint_links_dont_interfere():
    sim = Simulator()
    topo = MeshTopology(1, 3)
    lat = LatencyModel(software_overhead=0, per_hop=1e-3, per_byte=0)
    net, delivered = _collect(sim, topo, lat, ContentionNetwork)
    net.transmit(Message(0, 1, "a"))
    net.transmit(Message(2, 1, "b"))
    sim.run()
    assert [t for t, _ in delivered] == pytest.approx([1e-3, 1e-3])


def test_task_message_bytes():
    assert task_message_bytes(0) == 32
    assert task_message_bytes(3) == 32 + 3 * 64
    with pytest.raises(ValueError):
        task_message_bytes(-1)


def test_message_size_validation():
    with pytest.raises(ValueError):
        Message(0, 1, "m", size=-5)
