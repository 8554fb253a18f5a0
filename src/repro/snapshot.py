"""Deterministic checkpoint/restore of complete simulator state.

A :class:`Snapshot` is a versioned, self-contained serialization of one
:class:`~repro.machine.machine.Machine` together with everything hanging
off it — the event heap (including its seq counter, so tie-breaking
order survives), node mailboxes/CPU queues/timers, network in-flight
messages and link reservations, RNG streams, strategy state, and the
fault injector with its reliable-transport tables.  Restoring a snapshot
and running to completion is **bit-identical** to never having stopped:
the test grid asserts equality of metrics, tracer records, and the task
conservation audit for every strategy × fault-plan combination.

Mechanism
---------
The whole object graph is one pickle.  That works because PR-level
refactors keep every scheduled callback a *bound method or named slotted
callable* (never a closure), so the event heap's ``fn`` fields pickle by
reference into the same memo as the nodes/driver they point at —
identity is preserved across the round trip, which is exactly what makes
the restored graph behave like the original.

The one piece of process-global state is the message-id counter
(:mod:`repro.machine.message`).  Snapshots record its watermark;
:func:`restore` fast-forwards the counter so ids minted after a restore
can never collide with ids already sitting in reliable-transport dedup
tables.  Message ids only ever gate uniqueness — no protocol orders by
them — so this is behavior-neutral.

Versioning
----------
:data:`SNAPSHOT_VERSION` is baked into every snapshot.  Bump it whenever
simulator internals change shape; stale snapshots then fail with
:class:`SnapshotVersionError` instead of resurrecting undefined state.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.machine.message import fast_forward_msg_ids, msg_id_watermark

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "SnapshotVersionError",
    "capture",
    "restore",
]

#: Format/semantics version of the serialized state.  Bump on any change
#: to simulator internals that a pickled object graph would bake in.
#: v2: Node fencing fields (``fenced``/``_cpu_epoch``, epoch-stamped
#: ``_finish`` events), partition state and the heartbeat detector in
#: the FaultInjector graph.
#: v3: windowed execution — a per-node partition owner, the networks'
#: cross-partition router hook, and the session meta's partition count.
#: v4: elastic membership — ``Node.membership``/``Node.departed``, the
#: ``MembershipManager`` (epoch log, handshake/election timers) in the
#: FaultInjector graph, and the driver's ``repinned``/``joined_nodes``/
#: ``departed_nodes`` state.
#: v5: event-heap entries are ``(time, priority, seq, handle)`` tuples,
#: and :class:`~repro.machine.event.EventHandle` carries a ``time`` slot
#: instead of the ``key`` ordering tuple.
#: v6: the v3 windowed-execution state (node owner, router hook, meta
#: partition count) leaves the pickled graph.
#: v7: one way out of and into the usable set — the injector keeps one
#: ``_added_callbacks`` list (no ``_rejoin_callbacks``/
#: ``_joined_callbacks``), bound to the driver's ``_on_node_removed``/
#: ``_on_node_added`` instead of its four per-cause methods.
#: v8: a traced machine's :class:`~repro.obs.tracer.Tracer` holds its
#: records as flat ``(ph, node, cat, name, t, dur_or_value, args)``
#: tuples instead of one dict per record.
#: v9: :class:`~repro.machine.node.Node` loses its ``_idle_callbacks``
#: list (the ``on_cpu_idle`` hook is gone).
SNAPSHOT_VERSION = 9

_MAGIC = b"repro-snapshot\n"


class SnapshotError(RuntimeError):
    """Invalid snapshot usage (capture mid-event, corrupt payload, ...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible code version."""

    def __init__(self, found: object, expected: int = SNAPSHOT_VERSION) -> None:
        super().__init__(
            f"snapshot version {found!r} is incompatible with this build "
            f"(expected {expected}); re-create the snapshot"
        )
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class Snapshot:
    """One frozen machine state: opaque payload + routing metadata.

    ``payload`` is the pickle of the full object graph; ``meta`` is a
    small JSON-able dict (never unpickled state) that callers like
    :class:`repro.session.Session` use to decide how to re-wire a
    restored machine — e.g. which stage it was captured at and the sim
    time.  ``msg_watermark`` is the process-global message-id high-water
    mark at capture time.
    """

    version: int
    payload: bytes
    msg_watermark: int
    meta: dict = field(default_factory=dict)

    def content_hash(self) -> str:
        """Digest of the payload (version-salted) for cache addressing."""
        h = hashlib.sha256()
        h.update(f"v{self.version}|".encode())
        h.update(self.payload)
        return h.hexdigest()[:24]

    # ------------------------------------------------------------------
    # wire/disk format: magic line, version line, watermark line, meta
    # pickle, payload.  The header is checked *before* any payload
    # unpickling so a version mismatch raises cleanly instead of
    # exploding mid-load.  ``to_bytes``/``from_bytes`` are the canonical
    # codec; files and blob-store entries share it byte for byte.
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the snapshot wire format (what :meth:`save`
        writes and blob stores keep)."""
        buf = io.BytesIO()
        buf.write(_MAGIC)
        buf.write(f"{self.version}\n".encode())
        buf.write(f"{self.msg_watermark}\n".encode())
        pickle.dump(self.meta, buf, protocol=pickle.HIGHEST_PROTOCOL)
        buf.write(self.payload)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "snapshot") -> "Snapshot":
        """Decode :meth:`to_bytes` output; raises
        :class:`SnapshotVersionError` on a version mismatch and
        :class:`SnapshotError` on corruption (``source`` names the blob
        in error messages)."""
        fh = io.BytesIO(data)
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise SnapshotError(f"{source} is not a repro snapshot")
        try:
            version = int(fh.readline().strip())
            watermark = int(fh.readline().strip())
        except ValueError as exc:
            raise SnapshotError(f"{source}: corrupt snapshot header") from exc
        if version != SNAPSHOT_VERSION:
            raise SnapshotVersionError(version)
        try:
            meta = pickle.load(fh)
        except Exception as exc:
            raise SnapshotError(f"{source}: corrupt snapshot meta") from exc
        payload = fh.read()
        return cls(version=version, payload=payload,
                   msg_watermark=watermark, meta=meta)

    def save(self, path: Path | str) -> Path:
        """Atomically write this snapshot to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(f"{path}.{os.getpid()}.tmp")
        tmp.write_bytes(self.to_bytes())
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: Path | str) -> "Snapshot":
        """Read a snapshot; raises :class:`SnapshotVersionError` on a
        version mismatch and :class:`SnapshotError` on corruption."""
        path = Path(path)
        return cls.from_bytes(path.read_bytes(), source=str(path))


# ----------------------------------------------------------------------
# capture / restore
# ----------------------------------------------------------------------
def capture(machine: "Machine", meta: Optional[dict] = None) -> Snapshot:
    """Freeze ``machine`` (plus its registered roots) into a snapshot.

    Must be called between events — checkpointing from *inside* a
    scheduled callback would freeze a half-applied event and is refused.
    The machine is left untouched and can keep running, and its tracer
    records nothing: a resumed run's trace must stay bit-identical to
    an uninterrupted one.
    """
    if machine.sim._running:
        raise SnapshotError(
            "cannot checkpoint while the simulator is mid-event; "
            "stop the run (max_events=) first"
        )
    meta = dict(meta or {})
    meta.setdefault("sim_now", machine.sim.now)
    meta.setdefault("events_processed", machine.sim.events_processed)
    buf = io.BytesIO()
    pickle.dump(
        {"machine": machine, "roots": machine._snapshot_roots},
        buf,
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return Snapshot(
        version=SNAPSHOT_VERSION,
        payload=buf.getvalue(),
        msg_watermark=msg_id_watermark(),
        meta=meta,
    )


def restore(snapshot: Snapshot) -> "Machine":
    """Rehydrate the machine (and its whole object graph) from a snapshot.

    Returns the restored :class:`Machine`; anything registered via
    :meth:`Machine.register_snapshot_root` (the driver, and through it
    the strategy and workers) is reachable as
    ``machine.snapshot_root(name)``.  The process-global message-id
    counter is fast-forwarded past the snapshot's watermark so fresh ids
    cannot collide with restored in-flight/dedup state.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(snapshot.version)
    try:
        state = pickle.loads(snapshot.payload)
        machine = state["machine"]
        roots = state["roots"]
    except SnapshotVersionError:
        raise
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
    # the roots dict in the payload is the same object the machine
    # carries (one pickle memo), but be defensive about older payloads
    machine._snapshot_roots = roots
    fast_forward_msg_ids(snapshot.msg_watermark)
    return machine
