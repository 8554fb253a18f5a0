"""Unit tests for the durable session journal (repro.service.journal)."""

import json

import pytest

from repro.runner import RunRequest
from repro.service import SessionJournal
from repro.store import LocalDirStore

NS = "sessions"


def _wire(seed=1):
    return RunRequest(workload="queens-10", strategy="RIPS", num_nodes=8,
                      seed=seed, scale="small").to_wire()


@pytest.fixture()
def store(tmp_path):
    return LocalDirStore(tmp_path)


def test_admit_and_record_roundtrip_through_the_store(store):
    journal = SessionJournal(store)
    journal.admit("s0001-aaaa", "tests", _wire(), n=1)
    journal.record("s0001-aaaa", {"kind": "state", "state": "running",
                                  "seq": 2})

    # a fresh journal instance sees everything through the store alone
    replay = SessionJournal(store).load_all()
    assert [d["id"] for d in replay] == ["s0001-aaaa"]
    doc = replay[0]
    assert doc["tenant"] == "tests"
    assert doc["n"] == 1
    assert doc["request"] == _wire()
    assert [e["kind"] for e in doc["entries"]] == ["admitted", "state"]
    assert SessionJournal.last_state(doc) == "running"


def test_load_all_sorts_by_admission_index(store):
    journal = SessionJournal(store)
    for n, sid in ((5, "s0005-eeee"), (2, "s0002-bbbb"), (9, "s0009-ffff")):
        journal.admit(sid, "tests", _wire(seed=n), n=n)
    docs = SessionJournal(store).load_all()
    assert [d["n"] for d in docs] == [2, 5, 9]


def test_document_views(store):
    journal = SessionJournal(store)
    journal.admit("s0001-aaaa", "tests", _wire(), n=1)
    doc = journal._docs["s0001-aaaa"]
    assert SessionJournal.last_state(doc) == "queued"
    assert SessionJournal.last_checkpoint(doc) == ""
    assert SessionJournal.last_seq(doc) == 0
    assert SessionJournal.terminal(doc) is None

    journal.record("s0001-aaaa", {"kind": "state", "state": "running",
                                  "seq": 2})
    journal.record("s0001-aaaa", {"kind": "checkpoint",
                                  "checkpoint": "s0001-aaaa-auto-0004",
                                  "auto": True, "seq": 7})
    assert SessionJournal.last_checkpoint(doc) == "s0001-aaaa-auto-0004"
    assert SessionJournal.last_seq(doc) == 7
    assert SessionJournal.terminal(doc) is None

    journal.record("s0001-aaaa", {"kind": "state", "state": "done",
                                  "seq": 9, "metrics": {"T": 1.0}})
    terminal = SessionJournal.terminal(doc)
    assert terminal is not None
    assert terminal["state"] == "done"
    assert terminal["metrics"] == {"T": 1.0}


def test_record_for_unknown_session_is_ignored(store):
    journal = SessionJournal(store)
    journal.record("s9999-none", {"kind": "state", "state": "done"})
    assert len(SessionJournal(store).load_all()) == 0


def test_forget_drops_the_blob(store):
    journal = SessionJournal(store)
    journal.admit("s0001-aaaa", "tests", _wire(), n=1)
    assert store.get(NS, "journal-s0001-aaaa") is not None
    journal.forget("s0001-aaaa")
    assert store.get(NS, "journal-s0001-aaaa") is None
    assert len(SessionJournal(store).load_all()) == 0


def test_corrupt_journal_blob_is_quarantined_not_fatal(store, tmp_path):
    journal = SessionJournal(store)
    journal.admit("s0001-aaaa", "tests", _wire(), n=1)
    store.put(NS, "journal-s0002-bbbb", b"{not json")
    store.put(NS, "journal-s0003-cccc",
              json.dumps({"v": 1, "no_id": True}).encode())

    with pytest.warns(UserWarning):
        docs = SessionJournal(store).load_all()
    assert [d["id"] for d in docs] == ["s0001-aaaa"]
    quarantined = list(tmp_path.glob("**/*.corrupt"))
    assert len(quarantined) == 2


def test_write_failures_are_counted_and_reported_not_raised(store):
    failing = {"on": False}
    seen: list[str] = []

    class BrokenPut(LocalDirStore):
        def put(self, ns, key, data):
            if failing["on"]:
                raise OSError("disk on fire")
            return super().put(ns, key, data)

    broken = BrokenPut(store.root)
    journal = SessionJournal(
        broken,
        on_write_error=lambda exc: seen.append("fail"),
        on_write_ok=lambda: seen.append("ok"))
    journal.admit("s0001-aaaa", "tests", _wire(), n=1)
    failing["on"] = True
    journal.record("s0001-aaaa", {"kind": "state", "state": "running",
                                  "seq": 2})
    journal.record("s0001-aaaa", {"kind": "state", "state": "done",
                                  "seq": 3})
    assert journal.write_failures == 2
    assert seen == ["ok", "fail", "fail"]
    # the in-memory mirror kept both entries: the next successful flush
    # persists the full history, not just the last event
    failing["on"] = False
    journal.record("s0001-aaaa", {"kind": "state", "state": "done",
                                  "seq": 4})
    doc = SessionJournal(store).load_all()[0]
    assert SessionJournal.last_seq(doc) == 4
    assert len(doc["entries"]) == 4


def test_retry_failed_retests_the_store_with_one_put(tmp_path):
    """Regression: a re-test re-put every unwritten document, so each
    health probe against a store still down cost N puts on the event
    loop and counted N write failures."""

    class Outage(LocalDirStore):
        down = True
        puts = 0

        def put(self, ns, key, data):
            self.puts += 1
            if self.down:
                raise OSError("store unavailable")
            return super().put(ns, key, data)

    store = Outage(tmp_path)
    errors = []
    journal = SessionJournal(store, on_write_error=errors.append)
    for n, sid in enumerate(("s0001-aaaa", "s0002-bbbb", "s0003-cccc"), 1):
        journal.admit(sid, "tests", _wire(n), n=n)
    assert (store.puts, journal.write_failures, len(errors)) == (3, 3, 3)

    journal.retry_failed()  # still down: one put, one counted failure
    assert (store.puts, journal.write_failures, len(errors)) == (4, 4, 4)

    store.down = False
    journal.retry_failed()  # back: the oldest, then the rest
    assert store.puts == 7
    assert [d["id"] for d in SessionJournal(store).load_all()] == [
        "s0001-aaaa", "s0002-bbbb", "s0003-cccc"]
    journal.retry_failed()  # nothing left unwritten
    assert store.puts == 7
