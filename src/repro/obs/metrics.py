"""One metrics dialect for the whole stack: the :class:`MetricsRegistry`.

Until now every subsystem invented its own reporting shape — ``bench``
JSON, ``cache stats`` rows, ``/v1/healthz`` documents, chaos summaries,
tracer counter tails.  This module is the single vocabulary they migrate
onto:

* **Instruments** — :class:`Counter` (monotone), :class:`Gauge` (last
  value wins), :class:`Histogram` (observations + exact percentiles),
  each addressed by a name plus an optional label set::

      reg = MetricsRegistry()
      reg.counter("executor.cache_hits").inc()
      reg.histogram("cell.latency_s", target="runner").observe(0.012)

* **Snapshot** — :meth:`MetricsRegistry.snapshot` renders every
  instrument into one deterministic, versioned JSON document
  (:data:`METRICS_SCHEMA`).  The service's ``GET /v1/metrics`` and
  every CLI ``--json`` flag emit it.

* **Report envelope** — :func:`make_report` wraps any payload in the
  shared ``repro.report/1`` envelope (``{"schema", "kind", "data",
  "metrics"?}``); :func:`validate_report` is the strict counterpart
  (unknown top-level fields are rejected, exactly like the v1 wire
  schema).
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
    "REPORT_SCHEMA",
    "make_report",
    "percentile",
    "validate_report",
]

#: Version stamp of the registry snapshot document.
METRICS_SCHEMA = "repro.metrics/1"

#: Version stamp of the shared report envelope every ``--json`` surface
#: and ``GET /v1/metrics`` emits.
REPORT_SCHEMA = "repro.report/1"

#: Top-level fields allowed in a ``repro.report/1`` envelope.
_REPORT_FIELDS = frozenset(("schema", "kind", "data", "metrics"))

#: Histograms keep at most this many raw samples; beyond it only the
#: running aggregates (count/sum/min/max) stay exact and the snapshot
#: reports how many samples were not retained.
DEFAULT_MAX_SAMPLES = 100_000

#: Percentiles every histogram snapshot carries.
SNAPSHOT_PERCENTILES = (50.0, 90.0, 99.0)


# ----------------------------------------------------------------------
# percentile math (the histograms' snapshot percentiles)
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default ``linear`` method, stdlib-only).

    Raises :class:`ValueError` on an empty input — an absent latency
    distribution must fail loudly, not read as 0.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotone event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters are monotone; cannot add {n}")
        self.value += n

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time measurement; the last :meth:`set` wins."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot_value(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A distribution of observations with exact small-sample percentiles.

    Raw samples are retained up to ``max_samples`` (percentiles computed
    from them are exact, not estimated: the executor's and the service's
    wait/exec histograms report true order statistics); past the cap,
    count/sum/min/max stay exact and the snapshot reports the overflow
    under ``"samples_dropped"``.
    """

    __slots__ = ("samples", "max_samples", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.samples: list[float] = []
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)

    def snapshot_value(self) -> dict:
        out: dict = {"count": self.count}
        if self.count == 0:
            return out
        out.update(sum=self.total, min=self.min, max=self.max,
                   mean=self.total / self.count)
        for q in SNAPSHOT_PERCENTILES:
            label = f"p{q:g}".replace(".", "_")
            out[label] = percentile(self.samples, q)
        dropped = self.count - len(self.samples)
        if dropped:
            out["samples_dropped"] = dropped
        return out


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Named counters/gauges/histograms with label sets.

    Instruments are created on first access and addressed by
    ``(name, labels)``; repeated lookups return the same object, so
    producers may either cache the handle (hot paths) or re-look it up
    (cold paths).  ``snapshot()`` renders everything into the versioned
    :data:`METRICS_SCHEMA` document with a deterministic ordering.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = cls()
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} {labels or ''} already registered as "
                f"{inst.kind}, requested {cls.kind}")
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def value(self, name: str, default=None, **labels):
        """The scalar value of a counter/gauge (None/`default` if absent)."""
        inst = self._instruments.get((name, _label_key(labels)))
        if inst is None:
            return default
        return inst.value

    def snapshot(self) -> dict:
        """The versioned JSON document of every instrument."""
        series = []
        for (name, labels), inst in sorted(
                self._instruments.items(),
                key=lambda kv: (kv[0][0], kv[0][1])):
            entry = {"name": name, "kind": inst.kind}
            if labels:
                entry["labels"] = dict(labels)
            entry.update(inst.snapshot_value())
            series.append(entry)
        return {"schema": METRICS_SCHEMA, "series": series}


# ----------------------------------------------------------------------
# the shared report envelope
# ----------------------------------------------------------------------
def make_report(kind: str, data: dict,
                registry: Optional[MetricsRegistry] = None) -> dict:
    """Wrap ``data`` in the ``repro.report/1`` envelope.

    Every JSON-emitting surface (CLI ``--json``, ``/v1/metrics``) speaks
    this shape: ``schema`` + ``kind`` + ``data``, plus an optional
    ``metrics`` registry snapshot.
    """
    doc = {"schema": REPORT_SCHEMA, "kind": str(kind), "data": dict(data)}
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    return doc


def validate_report(doc: object, kind: Optional[str] = None) -> dict:
    """Strict envelope check, mirroring the v1 wire-schema discipline.

    Unknown top-level fields, a wrong ``schema``, a non-dict ``data``,
    and (when given) a mismatched ``kind`` all raise :class:`ValueError`
    with the offending names spelled out.  Returns ``doc`` unchanged.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported report schema {doc.get('schema')!r}; this build "
            f"speaks {REPORT_SCHEMA}")
    unknown = sorted(set(doc) - _REPORT_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown report field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_REPORT_FIELDS))}")
    if "kind" not in doc or not isinstance(doc["kind"], str):
        raise ValueError("report must carry a string 'kind'")
    if kind is not None and doc["kind"] != kind:
        raise ValueError(
            f"expected report kind {kind!r}, got {doc['kind']!r}")
    if not isinstance(doc.get("data"), dict):
        raise ValueError("report 'data' must be an object")
    if "metrics" in doc:
        metrics = doc["metrics"]
        if (not isinstance(metrics, dict)
                or metrics.get("schema") != METRICS_SCHEMA):
            raise ValueError(
                f"report 'metrics' must be a {METRICS_SCHEMA} snapshot")
    return doc
