"""Pluggable blob storage behind every on-disk cache.

Three subsystems persist content-addressed artifacts — finished cell
results (:mod:`repro.runner.result_cache`), preempted-cell run
checkpoints (:mod:`repro.runner.spec`), and the service's paused-session
store (:mod:`repro.service`).  They all want the same thing: atomic writes of
opaque bytes under a caller-computed key, corrupt-is-a-miss reads, and
cheap enumeration.  :class:`BlobStore` is that contract, and
:class:`LocalDirStore` the local-filesystem backend; other backends
(object stores, a shared network cache) implement the same five methods
and everything above them keeps working.

Namespaces
----------
Blobs live in *namespaces* — ``results``, ``checkpoints``, ``sessions``
— each mapping to a subdirectory + filename suffix of the
store root.  The mapping reproduces the historical ``.result_cache/``
layout exactly, so a store pointed at a pre-existing cache directory
sees every entry that was written before this abstraction existed.

Keys are plain strings (no path separators); the store neither hashes
nor interprets them — content addressing is the *caller's* discipline
(request hashes, snapshot digests, session ids).
"""

from __future__ import annotations

import os
import random
import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = [
    "BlobNamespace",
    "BlobStore",
    "FlakyStore",
    "LocalDirStore",
    "NAMESPACES",
    "StoreCorruption",
    "StoreFault",
    "default_store_root",
]


class StoreCorruption(UserWarning):
    """A blob on disk was unreadable/undecodable and has been quarantined."""


class StoreFault(OSError):
    """An injected store failure (raised by :class:`FlakyStore`)."""

_ENV_VAR = "REPRO_RESULT_CACHE"


@dataclass(frozen=True)
class BlobNamespace:
    """One logical shelf of the store: subdirectory + filename suffix."""

    name: str
    subdir: str  # "" = the store root itself
    suffix: str  # including the dot, e.g. ".pkl"
    description: str = ""


#: The store's shelves, matching the historical ``.result_cache/`` layout.
NAMESPACES: dict[str, BlobNamespace] = {
    ns.name: ns
    for ns in (
        BlobNamespace("results", "", ".pkl",
                      "finished experiment cells (RunMetrics pickles)"),
        BlobNamespace("checkpoints", "checkpoints", ".ckpt",
                      "preempted/crash-durable run checkpoints"),
        BlobNamespace("sessions", "sessions", ".ckpt",
                      "paused service sessions"),
    )
}


def default_store_root() -> Path:
    """Default store root (``$REPRO_RESULT_CACHE`` or
    ``<repo>/.result_cache``), created on first use."""
    env = os.environ.get(_ENV_VAR)
    if env:
        path = Path(env)
    else:
        path = Path(__file__).resolve().parents[2] / ".result_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


class BlobStore(ABC):
    """Atomic, namespaced, key-addressed byte storage.

    Implementations must guarantee that :meth:`put` is atomic (a reader
    never observes a torn blob) and that :meth:`get` returns ``None`` —
    never raises — for absent keys.  Corruption detection is the
    *caller's* job (the stored formats are self-validating); callers
    delete bad blobs via :meth:`delete`.
    """

    @staticmethod
    def namespace(name: str) -> BlobNamespace:
        """Resolve a namespace name, with a clear error for typos."""
        try:
            return NAMESPACES[name]
        except KeyError:
            raise KeyError(
                f"unknown blob namespace {name!r}; "
                f"available: {', '.join(sorted(NAMESPACES))}"
            ) from None

    @abstractmethod
    def put(self, ns: str, key: str, data: bytes) -> None:
        """Atomically store ``data`` under ``(ns, key)``, replacing any
        previous blob."""

    @abstractmethod
    def get(self, ns: str, key: str) -> Optional[bytes]:
        """The blob at ``(ns, key)``, or ``None`` if absent/unreadable."""

    @abstractmethod
    def delete(self, ns: str, key: str) -> bool:
        """Remove one blob; True if something was removed."""

    @abstractmethod
    def keys(self, ns: str) -> list[str]:
        """All keys currently stored in ``ns`` (sorted)."""

    @abstractmethod
    def stats(self, ns: Optional[str] = None) -> dict:
        """Entry/byte totals — for one namespace, or ``{"namespaces":
        {...}, "entries": N, "bytes": B}`` over all of them."""

    def quarantine(self, ns: str, key: str) -> bool:
        """Put a blob that failed to decode out of the read path.

        Callers that detect corruption (a truncated snapshot, an
        undecodable journal) call this instead of :meth:`delete` so the
        evidence survives for forensics.  The base implementation just
        deletes; :class:`LocalDirStore` renames to ``<blob>.corrupt``.
        Emits a :class:`StoreCorruption` warning either way; returns
        True if a blob was actually moved/removed.
        """
        moved = self.delete(ns, key)
        if moved:
            warnings.warn(
                f"blob {ns}/{key} was unreadable and has been quarantined",
                StoreCorruption, stacklevel=2)
        return moved

    def clear(self, ns: Optional[str] = None) -> int:
        """Delete every blob in ``ns`` (or in all namespaces); returns
        the number removed."""
        names = [ns] if ns is not None else list(NAMESPACES)
        removed = 0
        for name in names:
            for key in self.keys(name):
                if self.delete(name, key):
                    removed += 1
        return removed


class LocalDirStore(BlobStore):
    """The local-filesystem backend: one file per blob.

    Writes go to a pid-unique temp file then ``rename`` within the same
    directory, so concurrent writers (pool workers, service threads) and
    interrupted processes can never leave a torn entry — the same
    discipline ``.result_cache/`` has always used, now in one place.
    """

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path(self, ns: str, key: str) -> Path:
        spec = self.namespace(ns)
        if "/" in key or key.startswith("."):
            raise ValueError(f"invalid blob key {key!r}")
        base = self.root / spec.subdir if spec.subdir else self.root
        return base / f"{key}{spec.suffix}"

    # ------------------------------------------------------------------
    def put(self, ns: str, key: str, data: bytes) -> None:
        path = self.path(ns, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(f"{path}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            # fsync before the rename: the atomic replace only protects
            # against torn *names* — a crash between rename and writeback
            # could still surface a zero-length blob without this.
            os.fsync(fh.fileno())
        tmp.replace(path)

    def get(self, ns: str, key: str) -> Optional[bytes]:
        path = self.path(ns, key)
        try:
            return path.read_bytes()
        except OSError:
            return None

    def delete(self, ns: str, key: str) -> bool:
        path = self.path(ns, key)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def quarantine(self, ns: str, key: str) -> bool:
        """Rename an unreadable blob to ``<name>.corrupt`` (keeping the
        evidence on disk, out of :meth:`keys`/:meth:`get` sight) and warn."""
        path = self.path(ns, key)
        target = Path(f"{path}.corrupt")
        try:
            path.replace(target)
        except OSError:
            return False
        warnings.warn(
            f"blob {ns}/{key} was unreadable; quarantined to {target.name}",
            StoreCorruption, stacklevel=2)
        return True

    def keys(self, ns: str) -> list[str]:
        spec = self.namespace(ns)
        base = self.root / spec.subdir if spec.subdir else self.root
        if not base.is_dir():
            return []
        n = len(spec.suffix)
        return sorted(p.name[:-n] for p in base.glob(f"*{spec.suffix}"))

    def stats(self, ns: Optional[str] = None) -> dict:
        if ns is not None:
            spec = self.namespace(ns)
            base = self.root / spec.subdir if spec.subdir else self.root
            entries = list(base.glob(f"*{spec.suffix}")) if base.is_dir() else []
            return {
                "namespace": spec.name,
                "dir": str(base),
                "entries": len(entries),
                "bytes": sum(p.stat().st_size for p in entries),
            }
        per = {name: self.stats(name) for name in NAMESPACES}
        return {
            "dir": str(self.root),
            "namespaces": per,
            "entries": sum(s["entries"] for s in per.values()),
            "bytes": sum(s["bytes"] for s in per.values()),
        }

    def __repr__(self) -> str:
        return f"LocalDirStore({str(self.root)!r})"


class FlakyStore(BlobStore):
    """A deterministic fault-injecting wrapper around another store.

    The service chaos harness wraps the real store in one of these to
    prove the control plane survives storage trouble: seeded with
    ``seed``, it fails a fraction of writes (``put_fail_rate``, raising
    :class:`StoreFault`), turns a fraction of reads into misses
    (``get_miss_rate``, returning ``None`` — an unreadable blob and an
    absent one look the same to callers, per the :class:`BlobStore`
    contract), and optionally sleeps ``latency`` seconds per operation.
    The fault sequence is a pure function of the seed and the operation
    order, so a failing chaos case replays exactly.
    """

    def __init__(self, inner: BlobStore, seed: int = 0,
                 put_fail_rate: float = 0.0, get_miss_rate: float = 0.0,
                 latency: float = 0.0) -> None:
        self.inner = inner
        self.rng = random.Random(seed)
        self.put_fail_rate = float(put_fail_rate)
        self.get_miss_rate = float(get_miss_rate)
        self.latency = float(latency)
        self.injected_put_failures = 0
        self.injected_get_misses = 0

    def _dawdle(self) -> None:
        if self.latency > 0:
            time.sleep(self.latency)

    def put(self, ns: str, key: str, data: bytes) -> None:
        self._dawdle()
        if self.put_fail_rate and self.rng.random() < self.put_fail_rate:
            self.injected_put_failures += 1
            raise StoreFault(f"injected put failure for {ns}/{key}")
        self.inner.put(ns, key, data)

    def get(self, ns: str, key: str) -> Optional[bytes]:
        self._dawdle()
        if self.get_miss_rate and self.rng.random() < self.get_miss_rate:
            self.injected_get_misses += 1
            return None
        return self.inner.get(ns, key)

    def delete(self, ns: str, key: str) -> bool:
        return self.inner.delete(ns, key)

    def quarantine(self, ns: str, key: str) -> bool:
        return self.inner.quarantine(ns, key)

    def keys(self, ns: str) -> list[str]:
        return self.inner.keys(ns)

    def stats(self, ns: Optional[str] = None) -> dict:
        return self.inner.stats(ns)

    def __repr__(self) -> str:
        return (f"FlakyStore({self.inner!r}, put_fail_rate="
                f"{self.put_fail_rate}, get_miss_rate={self.get_miss_rate})")
