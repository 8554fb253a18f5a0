"""Memory-footprint audit for giant meshes: where do the bytes live?

A 1024×1024-mesh run holds a million :class:`Node` objects, a heap of
pending event entries (each an entry tuple plus its
:class:`EventHandle`), and per-node CPU queues and protocol state.
Before budgeting such a run, one needs to know the per-subsystem
footprint — which structure grows with nodes, which with pending
events, which with in-flight messages.

:func:`memory_audit` walks a live :class:`~repro.machine.machine.Machine`
and reports counts plus byte estimates per subsystem::

    {"schema": "repro.memaudit/1",
     "num_nodes": 256,
     "subsystems": {
        "nodes":   {"count": 256, "bytes": ..., "cpu_queue_items": ...},
        "events":  {"count": ..., "bytes": ..., "dead": ...},
        ...
     },
     "total_bytes": ...,
     "per_node_bytes": ...}

Estimates are ``sys.getsizeof``-based shallow sizes times population
counts — a *budgeting* number, not an allocator-exact one: payload
objects referenced from queues (closures, message bodies) are counted
at container-slot granularity.  The point is
the scaling shape (bytes/node, bytes/event), which this captures.
"""

from __future__ import annotations

import sys
from typing import Optional

__all__ = ["MEMAUDIT_SCHEMA", "format_memory_audit", "memory_audit"]

MEMAUDIT_SCHEMA = "repro.memaudit/1"

_PTR = 8  # CPython pointer width on every platform we target


def _sizeof(obj) -> int:
    try:
        return sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects
        return _PTR


def memory_audit(machine) -> dict:
    """Audit a live machine's memory footprint per subsystem."""
    sim = machine.sim
    nodes = machine.nodes

    # --- event heap: (time, priority, seq, handle) entries + handles -----
    queue = sim._queue
    n_events = len(queue)
    ev_bytes = 0
    if n_events:
        sample = queue[0]
        per_event = _sizeof(sample) + _sizeof(sample[3])
        ev_bytes = n_events * per_event + _sizeof(queue)
    events = {
        "count": n_events,
        "dead": sim._dead,
        "live": n_events - sim._dead,
        "bytes": ev_bytes,
    }

    # --- nodes: object shells, CPU queues, handlers, protocol state ------
    cpu_items = 0
    handler_slots = 0
    state_entries = 0
    node_bytes = 0
    for node in nodes:
        cpu_items += len(node._cpu_queue)
        handler_slots += len(node._handlers)
        state_entries += len(node.state)
        node_bytes += (
            _sizeof(node)
            + _sizeof(node.__dict__)
            + _sizeof(node._cpu_queue)
            + _sizeof(node._handlers)
            + _sizeof(node.state)
            + _sizeof(node.cpu_time)
        )
    # queued CPU items are 4-tuples: (duration, category, fn, args)
    node_bytes += cpu_items * (_sizeof(()) + 4 * _PTR)
    node_tab = {
        "count": len(nodes),
        "cpu_queue_items": cpu_items,
        "handler_slots": handler_slots,
        "state_entries": state_entries,
        "bytes": node_bytes,
    }

    # --- network: shallow container footprint of the network object ------
    net = machine.network
    net_bytes = _sizeof(net)
    net_dict = getattr(net, "__dict__", None)
    if net_dict is not None:
        net_bytes += _sizeof(net_dict)
        for v in net_dict.values():
            net_bytes += _sizeof(v)
    network = {"count": 1, "bytes": net_bytes,
               "kind": type(net).__name__}

    # --- topology --------------------------------------------------------
    topo = machine.topology
    topo_bytes = _sizeof(topo)
    topo_dict = getattr(topo, "__dict__", None)
    if topo_dict is not None:
        topo_bytes += _sizeof(topo_dict)
        for v in topo_dict.values():
            topo_bytes += _sizeof(v)
    topology = {"count": 1, "bytes": topo_bytes,
                "kind": type(topo).__name__}

    subsystems = {
        "events": events,
        "nodes": node_tab,
        "network": network,
        "topology": topology,
    }

    total = sum(s["bytes"] for s in subsystems.values())
    num_nodes = len(nodes)
    return {
        "schema": MEMAUDIT_SCHEMA,
        "num_nodes": num_nodes,
        "pending_events": sim.pending(),
        "subsystems": subsystems,
        "total_bytes": total,
        "per_node_bytes": total / num_nodes if num_nodes else 0.0,
    }


def format_memory_audit(audit: dict, out: Optional[list] = None) -> str:
    """Human-facing table for ``repro loadtest --mem-audit`` and friends."""
    from ..metrics.report import format_table

    rows = []
    for name, sub in sorted(audit["subsystems"].items(),
                            key=lambda kv: -kv[1]["bytes"]):
        detail = ", ".join(
            f"{k}={v}" for k, v in sub.items()
            if k not in ("bytes",) and not isinstance(v, str))
        rows.append({
            "subsystem": name,
            "bytes": f"{sub['bytes']:,}",
            "detail": detail,
        })
    table = format_table(
        rows, title=f"memory audit ({audit['num_nodes']} nodes)")
    tail = (f"  total={audit['total_bytes']:,} B  "
            f"per-node={audit['per_node_bytes']:,.0f} B\n")
    return table + "\n" + tail
