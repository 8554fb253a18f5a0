"""Durable session journal: the service's write-ahead log.

Every session the service admits is mirrored into the blob store's
``sessions`` namespace as one JSON journal blob (key
``journal-<session id>``).  The blob is rewritten atomically on every
recorded event — admission, state transition, auto-checkpoint, terminal
result — so whatever instant the server dies at, the store holds a
consistent prefix of each session's history.  On startup
:meth:`repro.service.manager.SessionManager.recover` replays the
journals: terminal sessions come back as queryable records, sessions a
client paused keep their checkpoints, and interrupted (queued/running)
or health-parked sessions are re-admitted from their last checkpoint
and completed **bit-identically** to a run that was never interrupted
(the same guarantee the pause/resume path already proves — both ride
:mod:`repro.snapshot`).

Design points:

* **One blob per session, rewritten whole.**  The blob store offers
  atomic whole-blob puts and nothing else, and a session journal is a
  handful of entries (admission, a few transitions, periodic
  checkpoints, one result) — a rewrite per event is cheap and keeps
  replay trivial: the latest blob *is* the state.
* **Replay is idempotent.**  Recovery skips any session id that already
  has a live record, so a double ``recover()`` — or a recover racing a
  client resubmit of the same id — is a no-op.
* **Corruption is quarantined, not fatal.**  A journal blob that fails
  to decode is moved aside via :meth:`repro.store.BlobStore.quarantine`
  (a ``StoreCorruption`` warning, a ``*.corrupt`` file for forensics)
  and recovery continues with the rest.
* **Journal writes never kill a session.**  The manager records through
  :meth:`SessionJournal.record`, which swallows store failures and
  reports them to the health monitor instead — a full disk degrades the
  service, it does not crash simulations that are already in memory.
  The ids whose last write failed are remembered, so the health
  machine can re-test the store with :meth:`SessionJournal.retry_failed`.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.store import BlobStore

__all__ = ["JOURNAL_VERSION", "SessionJournal"]

JOURNAL_VERSION = 1

_NS = "sessions"
_PREFIX = "journal-"

#: Session states that will never run again (journal replay rebuilds
#: these as status-only records).
TERMINAL_STATES = ("done", "failed", "cancelled")


class SessionJournal:
    """The write-ahead log over one blob store.

    The journal keeps an in-memory mirror of every session document it
    has written or loaded, so a ``record`` is one dict append plus one
    atomic blob put — no read-modify-write round trip to disk.
    """

    def __init__(self, store: BlobStore,
                 on_write_error: Optional[Callable[[Exception], None]] = None,
                 on_write_ok: Optional[Callable[[], None]] = None) -> None:
        self.store = store
        #: called with the exception on a failed journal put, and after
        #: every successful one (the manager points these at the health
        #: monitor, which tracks the consecutive-failure streak)
        self.on_write_error = on_write_error
        self.on_write_ok = on_write_ok
        self._docs: dict[str, dict] = {}
        #: ids whose newest document has not reached the store, oldest
        #: failure first (a dict used as an ordered set)
        self._unwritten: dict[str, None] = {}
        self.write_failures = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def admit(self, session_id: str, tenant: str, request_wire: dict,
              n: int, parent: Optional[str] = None) -> None:
        """Open a session's journal: identity + wire request + admission
        index ``n`` (recovery re-admits in ascending ``n``)."""
        doc = {
            "v": JOURNAL_VERSION,
            "id": session_id,
            "tenant": tenant,
            "n": n,
            "request": request_wire,
            "parent": parent,
            "entries": [{"kind": "admitted"}],
        }
        self._docs[session_id] = doc
        self._flush(session_id)

    def record(self, session_id: str, entry: dict) -> None:
        """Append one event to a session's journal and persist it.

        Unknown session ids are ignored (a record GC'd from memory no
        longer journals).  Store failures are counted, reported to
        ``on_write_error``, and swallowed — see the module docstring.
        """
        doc = self._docs.get(session_id)
        if doc is None:
            return
        doc["entries"].append(entry)
        self._flush(session_id)

    def retry_failed(self) -> None:
        """Re-test the store with one put — the oldest document whose
        last write failed — and re-put the rest only once that succeeds,
        so a store that is still down costs one put and one counted
        failure per call.  A success reports ``on_write_ok``, which
        resets the health streak."""
        for session_id in list(self._unwritten):
            self._flush(session_id)
            if session_id in self._unwritten:
                return  # still failing

    def forget(self, session_id: str) -> None:
        """Drop a session's journal blob (terminal-record GC)."""
        self._docs.pop(session_id, None)
        self._unwritten.pop(session_id, None)
        try:
            self.store.delete(_NS, _PREFIX + session_id)
        except Exception:  # noqa: BLE001 - GC must never raise
            pass

    def _flush(self, session_id: str) -> None:
        doc = self._docs[session_id]
        data = json.dumps(doc, sort_keys=True).encode()
        try:
            self.store.put(_NS, _PREFIX + session_id, data)
        except Exception as exc:  # noqa: BLE001 - durability is best-effort
            self.write_failures += 1
            self._unwritten.setdefault(session_id)
            if self.on_write_error is not None:
                self.on_write_error(exc)
        else:
            self._unwritten.pop(session_id, None)
            if self.on_write_ok is not None:
                self.on_write_ok()

    # ------------------------------------------------------------------
    # reading / replay
    # ------------------------------------------------------------------
    def load_all(self) -> list[dict]:
        """Every decodable journal document, sorted by admission index.

        Undecodable blobs are quarantined (``*.corrupt``) and skipped.
        Loaded documents enter the in-memory mirror so subsequent
        ``record`` calls extend them.
        """
        docs = []
        for key in self.store.keys(_NS):
            if not key.startswith(_PREFIX):
                continue
            sid = key[len(_PREFIX):]
            data = self.store.get(_NS, key)
            if data is None:
                continue
            try:
                doc = json.loads(data)
                if not isinstance(doc, dict) or "id" not in doc \
                        or "entries" not in doc:
                    raise ValueError("journal document missing id/entries")
            except (ValueError, UnicodeDecodeError):
                self.store.quarantine(_NS, key)
                continue
            self._docs.setdefault(sid, doc)
            docs.append(self._docs[sid])
        docs.sort(key=lambda d: (d.get("n", 0), d.get("id", "")))
        return docs

    # ------------------------------------------------------------------
    # document views (static so tests can use them on raw docs)
    # ------------------------------------------------------------------
    @staticmethod
    def last_state_entry(doc: dict) -> dict:
        """The newest ``state`` entry (``{}`` before the first one)."""
        last: dict = {}
        for entry in doc.get("entries", ()):
            if entry.get("kind") == "state":
                last = entry
        return last

    @staticmethod
    def last_state(doc: dict) -> str:
        """The session's last journaled lifecycle state."""
        return SessionJournal.last_state_entry(doc).get("state", "queued")

    @staticmethod
    def last_checkpoint(doc: dict) -> str:
        """The blob key of the newest journaled checkpoint ("" = none)."""
        key = ""
        for entry in doc.get("entries", ()):
            if entry.get("kind") in ("checkpoint", "state") \
                    and entry.get("checkpoint"):
                key = entry["checkpoint"]
        return key

    @staticmethod
    def last_seq(doc: dict) -> int:
        """The highest frame sequence number the journal saw."""
        seq = 0
        for entry in doc.get("entries", ()):
            seq = max(seq, int(entry.get("seq", 0) or 0))
        return seq

    @staticmethod
    def terminal(doc: dict) -> Optional[dict]:
        """The terminal entry (with ``state``/``metrics``/``error``), or
        ``None`` while the session is still live."""
        last = SessionJournal.last_state_entry(doc)
        return last if last.get("state") in TERMINAL_STATES else None

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:
        return (f"SessionJournal({len(self._docs)} session(s), "
                f"{self.write_failures} write failure(s))")
