"""Disk cache for workload traces.

Generating a trace means actually running the application (solving
14-Queens takes ~10 s of real CPU), but the trace is a pure function of
the application parameters — so we pickle it once and reuse it across
strategies, machine sizes, test runs, and benchmark runs.  The cache
directory defaults to ``<repo>/.trace_cache`` and can be moved with the
``REPRO_TRACE_CACHE`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Callable

from repro.tasks.trace import WorkloadTrace

__all__ = [
    "trace_cache_dir",
    "cached_trace",
    "clear_trace_cache",
    "trace_cache_stats",
    "TRACE_FORMAT_VERSION",
]

_ENV_VAR = "REPRO_TRACE_CACHE"

#: Bump when the pickled trace layout (or its generation semantics)
#: changes; it is part of the cache key, so stale pickles from older code
#: simply stop being found instead of being unpickled into wrong shapes.
TRACE_FORMAT_VERSION = 2


def trace_cache_dir() -> Path:
    """Resolve (and create) the cache directory."""
    env = os.environ.get(_ENV_VAR)
    if env:
        path = Path(env)
    else:
        path = Path(__file__).resolve().parents[3] / ".trace_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _key(name: str, params: dict) -> str:
    # Canonical JSON, not repr: repr-based keys collide whenever two
    # distinct values render identically once embedded in a string (and
    # conversely split the cache for values with unstable reprs).  JSON
    # keeps 1 vs "1" distinct; ``default=repr`` covers non-JSON values.
    blob = json.dumps(
        {"name": name, "params": params, "format": TRACE_FORMAT_VERSION},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    ).encode()
    return f"{name}-{hashlib.sha256(blob).hexdigest()[:16]}"


def cached_trace(
    name: str, params: dict, build: Callable[[], WorkloadTrace]
) -> WorkloadTrace:
    """Return the cached trace for (name, params), building it if needed."""
    path = trace_cache_dir() / (_key(name, params) + ".pkl")
    if path.exists():
        try:
            with path.open("rb") as fh:
                trace = pickle.load(fh)
            if isinstance(trace, WorkloadTrace):
                return trace
        except Exception:
            path.unlink(missing_ok=True)  # corrupt cache entry: rebuild
    trace = build()
    # unique tmp per writer: parallel grid workers may build the same trace
    # concurrently, and a shared tmp path would interleave their writes
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            pickle.dump(trace, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
    finally:
        # a failed write (disk full, Ctrl-C) must not leave an orphan
        # that neither `cache stats` nor `cache clear` can see
        tmp.unlink(missing_ok=True)
    return trace


def clear_trace_cache() -> int:
    """Delete all cached traces; returns the number removed."""
    removed = 0
    for p in trace_cache_dir().glob("*.pkl"):
        p.unlink()
        removed += 1
    return removed


def trace_cache_stats() -> dict:
    """Entry count and total bytes of the on-disk trace cache."""
    entries = list(trace_cache_dir().glob("*.pkl"))
    return {
        "dir": str(trace_cache_dir()),
        "entries": len(entries),
        "bytes": sum(p.stat().st_size for p in entries),
        "format_version": TRACE_FORMAT_VERSION,
    }
