"""Trace disk cache: canonical keys, versioning, corruption recovery."""

from __future__ import annotations

import pytest

from repro.apps.cache import (
    TRACE_FORMAT_VERSION,
    _key,
    cached_trace,
    clear_trace_cache,
    trace_cache_dir,
    trace_cache_stats,
)
from repro.tasks.trace import TraceTask, WorkloadTrace


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    return tmp_path


def _tiny_trace(tag: str) -> WorkloadTrace:
    return WorkloadTrace(tag, [TraceTask(0, 1.0, 0, ())], sec_per_unit=1e-4)


def test_key_distinguishes_ambiguous_reprs():
    # repr-based keys collided for values that stringify identically once
    # embedded; canonical JSON keeps the type distinction
    assert _key("t", {"a": 1}) != _key("t", {"a": "1"})
    assert _key("t", {"a": 1.0}) != _key("t", {"a": "1.0"})
    assert _key("t", {"a": None}) != _key("t", {"a": "None"})


def test_key_is_order_insensitive_and_version_salted(monkeypatch):
    assert _key("t", {"a": 1, "b": 2}) == _key("t", {"b": 2, "a": 1})
    k = _key("t", {"a": 1})
    import repro.apps.cache as cache_mod
    monkeypatch.setattr(cache_mod, "TRACE_FORMAT_VERSION", TRACE_FORMAT_VERSION + 1)
    assert _key("t", {"a": 1}) != k  # stale pickles self-invalidate


def test_build_once_then_reuse(cache_dir):
    builds = []

    def build():
        builds.append(1)
        return _tiny_trace("x")

    t1 = cached_trace("tiny", {"n": 3}, build)
    t2 = cached_trace("tiny", {"n": 3}, build)
    assert len(builds) == 1
    assert t1.name == t2.name == "x"


def test_ambiguous_params_build_separately(cache_dir):
    built = []
    cached_trace("amb", {"n": 1}, lambda: (built.append("int"), _tiny_trace("a"))[1])
    cached_trace("amb", {"n": "1"}, lambda: (built.append("str"), _tiny_trace("b"))[1])
    assert built == ["int", "str"]  # no collision: both params variants built


def test_corrupt_pickle_rebuilds(cache_dir):
    builds = []

    def build():
        builds.append(1)
        return _tiny_trace("x")

    cached_trace("tiny", {"n": 5}, build)
    (pkl,) = cache_dir.glob("*.pkl")
    pkl.write_bytes(b"garbage")
    again = cached_trace("tiny", {"n": 5}, build)
    assert len(builds) == 2
    assert again.name == "x"


def test_failed_write_leaves_no_temp_file(cache_dir, monkeypatch):
    import repro.apps.cache as cache_mod

    def disk_full(*args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(cache_mod.pickle, "dump", disk_full)
    with pytest.raises(OSError, match="No space left"):
        cached_trace("tiny", {"n": 9}, lambda: _tiny_trace("x"))
    assert list(cache_dir.iterdir()) == []


def test_stats_and_clear(cache_dir):
    cached_trace("tiny", {"n": 7}, lambda: _tiny_trace("x"))
    stats = trace_cache_stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["format_version"] == TRACE_FORMAT_VERSION
    assert str(trace_cache_dir()) == stats["dir"]
    assert clear_trace_cache() == 1
    assert trace_cache_stats()["entries"] == 0
