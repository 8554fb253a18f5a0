"""Memory audit: per-subsystem footprint of a live machine."""

from __future__ import annotations

import sys

from repro.machine import Machine, MeshTopology
from repro.obs.memory import MEMAUDIT_SCHEMA, format_memory_audit, memory_audit
from repro.session import Session


def test_memory_audit_of_prepared_machine():
    sess = Session("queens-10", strategy="RIPS", num_nodes=8, seed=1,
                   scale="small").prepare()
    audit = memory_audit(sess._machine)
    assert audit["schema"] == MEMAUDIT_SCHEMA
    assert audit["num_nodes"] == 8
    assert audit["total_bytes"] > 0
    assert audit["per_node_bytes"] > 0
    subs = audit["subsystems"]
    for name in ("events", "nodes", "network", "topology"):
        assert name in subs, name
        assert subs[name]["bytes"] >= 0
    assert subs["nodes"]["count"] == 8
    # the parts sum to the whole
    assert audit["total_bytes"] == sum(s["bytes"] for s in subs.values())


def test_memory_audit_sizes_entry_tuple_plus_handle():
    """Each pending event costs its ``(time, priority, seq, handle)``
    entry tuple plus the handle, on top of the heap list itself."""
    machine = Machine(MeshTopology(2, 2), seed=1)
    for rank in range(4):
        machine.nodes[rank].send((rank + 1) % 4, "ping")
    queue = machine.sim._queue
    assert len(queue) == 4
    entry = queue[0]
    assert isinstance(entry, tuple) and len(entry) == 4
    per_event = sys.getsizeof(entry) + sys.getsizeof(entry[3])
    events = memory_audit(machine)["subsystems"]["events"]
    assert events["count"] == 4
    assert events["bytes"] == 4 * per_event + sys.getsizeof(queue)


def test_memory_audit_formats_as_table():
    sess = Session("queens-10", strategy="RIPS", num_nodes=8, seed=1,
                   scale="small").prepare()
    text = format_memory_audit(memory_audit(sess._machine))
    assert "nodes" in text
    assert "bytes" in text
