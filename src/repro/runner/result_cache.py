"""On-disk cache of finished experiment cells.

Where :mod:`repro.apps.cache` memoizes *trace generation* (the expensive
application run), this store memoizes the *simulation itself*: one pickle
per :class:`~repro.runner.spec.RunRequest`, keyed by a content hash of
the request's canonical JSON plus :data:`RESULT_CACHE_VERSION`.  Bump the
version whenever simulation semantics change (cost model, strategy
behavior, metric definitions) — old entries then simply stop being found
instead of serving stale numbers.

Storage goes through the pluggable :class:`repro.store.BlobStore`
(``results`` namespace) — atomic writes, corrupt-is-a-miss reads — so the
cache shares one backend with run checkpoints and the service's
session store.  The on-disk layout is unchanged from every
earlier release: ``<root>/<workload>-<strategy>-<key>.pkl``.

The cache key is derived from :meth:`RunRequest.canonical_json` — the
same canonical serializer behind the versioned wire schema
(:meth:`RunRequest.to_json`), so an on-the-wire request and a cache
entry can never disagree about what a cell means.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.store import BlobStore, LocalDirStore, default_store_root

if TYPE_CHECKING:  # pragma: no cover
    from repro.balancers import RunMetrics

    from .spec import RunRequest

__all__ = ["RESULT_CACHE_VERSION", "ResultCache", "result_cache_dir"]

#: Code-version salt baked into every cache key.  Bump on any change that
#: alters what a given RunRequest would compute.
RESULT_CACHE_VERSION = 2

_NS = "results"


def result_cache_dir() -> Path:
    """Default cache directory (``$REPRO_RESULT_CACHE`` or
    ``<repo>/.result_cache``), created on first use."""
    return default_store_root()


class ResultCache:
    """Content-addressed RunMetrics store with session hit/miss counters."""

    def __init__(self, root: Optional[Path | str] = None,
                 store: Optional[BlobStore] = None) -> None:
        if store is not None and root is not None:
            raise ValueError("pass either root= or store=, not both")
        self.store = store if store is not None else LocalDirStore(root)
        #: get() calls served from disk this session
        self.hits = 0
        #: get() calls that found nothing usable this session
        self.misses = 0

    @property
    def root(self) -> Path:
        """Backing directory (local backend only; kept for callers that
        inspect the store on disk)."""
        return self.store.root

    # ------------------------------------------------------------------
    def key(self, req: "RunRequest") -> str:
        blob = f"{req.canonical_json()}|v{RESULT_CACHE_VERSION}".encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    def blob_key(self, req: "RunRequest") -> str:
        """The store key: human-greppable prefix + content hash."""
        return f"{req.workload}-{req.strategy}-{self.key(req)}"

    def path(self, req: "RunRequest") -> Path:
        return self.store.path(_NS, self.blob_key(req))

    # ------------------------------------------------------------------
    def get(self, req: "RunRequest") -> Optional["RunMetrics"]:
        """Cached metrics for ``req``, or None.  Corrupt entries are
        deleted and reported as misses."""
        from repro.balancers import RunMetrics

        key = self.blob_key(req)
        data = self.store.get(_NS, key)
        if data is not None:
            try:
                metrics = pickle.loads(data)
                if isinstance(metrics, RunMetrics):
                    self.hits += 1
                    return metrics
            except Exception:
                pass
            self.store.delete(_NS, key)  # corrupt/wrong-type entry
        self.misses += 1
        return None

    def put(self, req: "RunRequest", metrics: "RunMetrics") -> None:
        self.store.put(
            _NS, self.blob_key(req),
            pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # ------------------------------------------------------------------
    # maintenance (python -m repro cache ...)
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete all cached results; returns the number removed."""
        return self.store.clear(_NS)

    def stats(self) -> dict:
        """On-disk totals plus this session's hit/miss counters."""
        st = self.store.stats(_NS)
        return {
            "dir": st["dir"],
            "entries": st["entries"],
            "bytes": st["bytes"],
            "version": RESULT_CACHE_VERSION,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }
