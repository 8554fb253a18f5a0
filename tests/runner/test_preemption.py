"""Preemptable cells: budget -> checkpoint -> resume, losing nothing.

``execute_request_resumable`` runs a cell in event slices under a
wall-clock budget; on overrun it checkpoints and raises
:class:`CellPreempted`, and a later call resumes from the checkpoint.
The executor's ``preempt`` mode turns that into a retry-pass resume.
"""

import os
import pickle
from pathlib import Path

import pytest

import repro.runner.executor as executor
from repro.runner import (
    CellPreempted,
    RunRequest,
    execute_request,
    execute_request_resumable,
)
from repro.runner.executor import run_requests_report

REQ = RunRequest("queens-10", "RIPS", num_nodes=8, scale="small")


def test_preempts_then_resumes_bit_identically(tmp_path):
    ref = execute_request(REQ)
    ckpt = tmp_path / "cell.ckpt"

    with pytest.raises(CellPreempted) as excinfo:
        execute_request_resumable(
            REQ, budget=0.0, checkpoint_path=ckpt, slice_events=1000)
    exc = excinfo.value
    assert exc.label == REQ.label()
    assert exc.request_hash == REQ.content_hash()[:24]
    assert exc.events_executed == 1000
    assert Path(exc.checkpoint_path) == ckpt and ckpt.exists()

    got = execute_request_resumable(REQ, checkpoint_path=ckpt,
                                    slice_events=1000)
    assert got == ref
    assert not ckpt.exists()  # finished cells clean up their state


@pytest.mark.parametrize("slice_events", [1, 255, 256, 257, 1000])
def test_traced_preemption_keeps_records_identical(tmp_path, slice_events):
    """The slice boundaries must leave no fingerprint in the trace —
    including slices that end just before, on, and just after the
    tracer's 256-event counter-sample boundary."""
    req = RunRequest("queens-10", "RIPS", num_nodes=8, scale="small",
                     trace=True)
    ref = execute_request(req)
    ckpt = tmp_path / "cell.ckpt"
    with pytest.raises(CellPreempted):
        execute_request_resumable(
            req, budget=0.0, checkpoint_path=ckpt, slice_events=slice_events)
    got = execute_request_resumable(req, checkpoint_path=ckpt,
                                    slice_events=slice_events)
    assert got.extra["trace_records"] == ref.extra["trace_records"]
    assert got == ref


def test_corrupt_checkpoint_restarts_cleanly(tmp_path):
    ckpt = tmp_path / "cell.ckpt"
    ckpt.write_bytes(b"not a snapshot at all")
    got = execute_request_resumable(REQ, checkpoint_path=ckpt)
    assert got == execute_request(REQ)
    assert not ckpt.exists()


def test_non_sim_kinds_fall_back_unbudgeted():
    opt = RunRequest("queens-10", "optimal", kind="optimal",
                     num_nodes=8, scale="small")
    # a zero budget would preempt instantly if it applied; it must not
    assert execute_request_resumable(opt, budget=0.0) == execute_request(opt)


def test_cell_preempted_survives_pickling():
    exc = CellPreempted("queens-10/RIPS", "abc123", "/tmp/x.ckpt", 4000, 1.5)
    clone = pickle.loads(pickle.dumps(exc))
    assert (clone.label, clone.request_hash, clone.checkpoint_path,
            clone.events_executed, clone.elapsed) == \
        ("queens-10/RIPS", "abc123", "/tmp/x.ckpt", 4000, 1.5)
    assert "preempted after" in str(clone)


# ----------------------------------------------------------------------
# executor integration (deterministic: the worker-side preemption is
# staged via a marker file instead of real wall-clock budgets)
# ----------------------------------------------------------------------
_MARKS_ENV = "REPRO_TEST_PREEMPT_MARKS"

POOL_REQS = [
    RunRequest("queens-10", "RIPS", num_nodes=8, scale="small"),
    RunRequest("queens-10", "random", num_nodes=8, scale="small"),
]


def _preempt_first_attempt(req, budget=None, checkpoint_path=None,
                           slice_events=None):
    """Stub worker: every cell is preempted once, then runs for real
    (module-level so the pool can pickle it by name)."""
    mark = Path(os.environ[_MARKS_ENV]) / req.content_hash()
    if not mark.exists():
        mark.write_text("preempted")
        raise CellPreempted(req.label(), req.content_hash()[:24],
                            str(mark), 1000, 0.01)
    return execute_request(req)


def test_pool_retry_pass_resumes_preempted_cells(tmp_path, monkeypatch):
    monkeypatch.setenv(_MARKS_ENV, str(tmp_path))
    monkeypatch.setattr(executor, "execute_request_resumable",
                        _preempt_first_attempt)
    report = run_requests_report(POOL_REQS, jobs=2, cache=None,
                                 timeout=60.0, preempt=True)
    assert report.preempted == len(POOL_REQS)
    assert report.retried == len(POOL_REQS)
    assert report.failed == 0
    assert report.results == [execute_request(r) for r in POOL_REQS]
    assert "preempted" in report.summary()


def test_pool_preempt_off_uses_plain_execution(tmp_path, monkeypatch):
    """Without ``preempt``, the stub must never be reached."""
    monkeypatch.setenv(_MARKS_ENV, str(tmp_path))
    monkeypatch.setattr(executor, "execute_request_resumable",
                        _preempt_first_attempt)
    report = run_requests_report(POOL_REQS, jobs=2, cache=None, timeout=60.0)
    assert report.preempted == 0 and report.retried == 0
    assert not list(tmp_path.iterdir())  # no marker files: stub unused
