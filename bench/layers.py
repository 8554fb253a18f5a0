"""Host self-time by layer: the module -> layer map and a cProfile rollup.

Layers are the repository's own modules, grouped the way the
``SUBSYSTEM_OF_CAT`` table in ``repro.obs.attribution`` groups simulated
time.  The first matching pattern wins; patterns are relative to
``src/repro``.  Every module of the package must map to a layer: a
profiled ``repro`` function whose module matches no pattern is reported
as unmapped, and the benchmark run fails on it.
"""

from __future__ import annotations

import os
from fnmatch import fnmatchcase
from pathlib import Path

__all__ = ["LAYERS", "MODULE_LAYERS", "layer_of_module", "rollup"]

MODULE_LAYERS = (
    ("machine/event.py", "machine.event"),
    ("shard/*", "machine.event"),  # windowed drains of the same event kernel
    ("machine/network.py", "machine.network"),
    ("machine/message.py", "machine.network"),
    ("machine/topology.py", "machine.topology"),
    ("machine/collectives.py", "machine.collectives"),
    ("machine/*", "machine.node"),
    ("balancers/*", "balancers"),
    ("core/mwa*.py", "core.mwa"),
    ("core/schedulers.py", "core.mwa"),
    ("optimal/*", "core.mwa"),
    ("core/*", "core.rips"),
    ("faults/*", "faults"),
    ("membership/*", "membership"),
    ("obs/*", "obs"),
    ("metrics/*", "obs"),
    ("snapshot.py", "snapshot"),
    ("store.py", "snapshot"),
    ("tasks/*", "tasks"),
    ("apps/*", "apps"),
    ("session.py", "session"),
    ("runner/*", "session"),
    ("experiments/*", "session"),
    ("service/*", "session"),
    ("loadtest/*", "session"),
    ("__init__.py", "session"),
    ("__main__.py", "session"),
)

#: every layer, in report order.  ``stdlib`` is any Python frame outside
#: the package and the benchmark (standard library and site-packages);
#: ``harness`` is the benchmark's own code.  C builtins have no layer of
#: their own: their time is charged to the layers that called them.
LAYERS = tuple(dict.fromkeys(layer for _pattern, layer in MODULE_LAYERS)) + (
    "stdlib", "harness")

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_BENCH = Path(__file__).resolve().parent


def layer_of_module(relpath: str) -> str | None:
    """The layer of the module at ``relpath`` (relative to ``src/repro``,
    ``/``-separated), or None when no pattern matches."""
    for pattern, layer in MODULE_LAYERS:
        if fnmatchcase(relpath, pattern):
            return layer
    return None


class _Classifier:
    """Memoised filename -> layer lookup for profiled functions."""

    def __init__(self, src: Path, bench: Path) -> None:
        self.src = os.path.realpath(src) + os.sep
        self.bench = os.path.realpath(bench) + os.sep
        self.memo: dict[str, str] = {}
        self.unmapped: set[str] = set()

    def __call__(self, filename: str) -> str | None:
        """Layer of a Python frame; None for a C builtin (``~``)."""
        if filename == "~":
            return None
        try:
            return self.memo[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename) if not filename.startswith("<") else filename
        if path.startswith(self.src):
            rel = path[len(self.src):].replace(os.sep, "/")
            layer = layer_of_module(rel)
            if layer is None:
                self.unmapped.add(rel)
                layer = "harness"  # counted somewhere; the run fails anyway
        elif path.startswith(self.bench):
            layer = "harness"
        else:
            layer = "stdlib"
        self.memo[filename] = layer
        return layer


def rollup(stats: dict, src: Path = _SRC, bench: Path = _BENCH) -> dict:
    """Roll a cProfile stats table (``Profile.stats`` after
    ``create_stats()``) up by layer.

    Returns ``{"layers": {layer: {"self_s", "share", "calls_in"}},
    "total_s", "unmapped": [module, ...]}``.  A builtin's self time is
    split over its callers in proportion to the time each caller's calls
    spent in it (cProfile's per-caller split); a builtin called from a
    builtin inherits that caller's split.  ``calls_in`` counts calls into
    a layer's Python functions from a different layer.
    """
    classify = _Classifier(src, bench)
    owners: dict = {}

    def owner(func, visiting: frozenset = frozenset()) -> dict[str, float]:
        layer = classify(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in visiting}
        if sum(weights.values()) <= 0:
            weights = {c: v[1] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            split = {"harness": 1.0}  # no caller: the profiler switch itself
        else:
            split: dict[str, float] = {}
            for caller, w in weights.items():
                for layer, share in owner(caller, visiting | {func}).items():
                    split[layer] = split.get(layer, 0.0) + share * w / total
        if not visiting:
            owners[func] = split
        return split

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for layer, share in owner(func).items():
            self_s[layer] += tt * share
        layer = classify(func[0])
        if layer is None:
            continue
        for caller, (_ccc, nc, _ctt, _cct) in callers.items():
            for caller_layer, share in owner(caller).items():
                if caller_layer != layer:
                    calls_in[layer] += nc * share
    total = sum(self_s.values())
    return {
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "share": self_s[layer] / total if total > 0 else 0.0,
                "calls_in": round(calls_in[layer]),
            }
            for layer in LAYERS
        },
        "total_s": total,
        "unmapped": sorted(classify.unmapped),
    }
