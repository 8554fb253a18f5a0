"""One experiment cell: what to run, described as pure data.

A :class:`RunRequest` pins down everything that determines a cell's
outcome — workload key, strategy, machine size, seed, scale, execution
cost knobs, and (for the cross-topology experiment) a topology case.  It
is frozen, hashable, picklable, and has a canonical JSON form, which is
what makes both process-pool dispatch and content-addressed result
caching possible.

:func:`execute_request` is the *only* way a request becomes a result; the
serial path, the process-pool workers, and the cache-fill path all call
it, so the three are bit-identical by construction.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dc_fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.balancers import ExecutionConfig
from repro.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.balancers import RunMetrics

__all__ = [
    "API_VERSION",
    "CellPreempted",
    "RunRequest",
    "WireFormatError",
    "execute_request",
    "execute_request_resumable",
]

#: Version of the public wire schema (:meth:`RunRequest.to_json` /
#: :meth:`RunRequest.from_json`).  Bump only on *incompatible* schema
#: changes — adding a field with a serialize-only-when-non-default
#: discipline is compatible and does not bump it.
API_VERSION = 1

#: events per cooperative-deadline slice in resumable execution; small
#: enough that a budget overrun is noticed within a fraction of a second
PREEMPT_SLICE_EVENTS = 250_000


class WireFormatError(ValueError):
    """A JSON request document does not conform to the v1 wire schema."""


#: Field names accepted on the wire — exactly the RunRequest fields.
_WIRE_FIELDS = frozenset((
    "workload", "strategy", "num_nodes", "seed", "scale", "config",
    "topology_case", "kind", "params", "trace", "faults",
    "session_overrides",
))


def _wire_str(doc: dict, name: str) -> str:
    value = doc[name]
    if not isinstance(value, str):
        raise WireFormatError(
            f"field {name!r} must be a string, got {type(value).__name__}")
    return value


def _wire_int(doc: dict, name: str) -> int:
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(
            f"field {name!r} must be an integer, got {value!r}")
    return value


def _wire_config(value: object) -> ExecutionConfig:
    if not isinstance(value, dict):
        raise WireFormatError("field 'config' must be an object")
    known = {f.name for f in dc_fields(ExecutionConfig)}
    unknown = sorted(set(value) - known)
    if unknown:
        raise WireFormatError(
            f"unknown config field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(known))}"
        )
    try:
        return ExecutionConfig(**value)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"invalid 'config': {exc}") from exc


def _wire_pairs(doc: dict, name: str) -> tuple:
    value = doc[name]
    if not isinstance(value, (list, tuple)):
        raise WireFormatError(f"field {name!r} must be a list of [key, value] pairs")
    out = []
    for item in value:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)):
            raise WireFormatError(
                f"field {name!r} entries must be [name, value] pairs, "
                f"got {item!r}")
        out.append((item[0], tuple(item[1]) if isinstance(item[1], list)
                    else item[1]))
    return tuple(out)


@dataclass(frozen=True)
class RunRequest:
    """A single cell of the experiment grid.

    ``topology_case`` is ``None`` for the Table-I/III strategy grid; set
    it to a case name from
    :func:`repro.experiments.topologies.topology_cases` to run the
    cross-topology RIPS comparison instead (``strategy`` must then be
    ``"RIPS"``; :meth:`repro.session.Session.from_request` pairs the
    case's topology with its planner).

    ``kind`` selects what computation the cell stands for:

    * ``"sim"`` — a scheduled simulation run (Table I/III, topologies);
    * ``"optimal"`` — the Table-II optimal-efficiency bound for the
      workload (``strategy`` is conventionally ``"optimal"``);
    * ``"fig4"`` — one Figure-4 MWA-vs-optimal redistribution cell;
      ``params`` carries ``(("weight", w), ("cases", c))``.

    ``params`` is a tuple of ``(key, value)`` pairs (hashable, canonical)
    for kinds that need extra inputs.  ``trace=True`` attaches a
    :class:`repro.obs.Tracer` to the run and returns its records in
    ``metrics.extra["trace_records"]``; traced requests bypass the result
    cache.  All three fields serialize only when non-default, so request
    hashes from earlier versions are unchanged.
    """

    workload: str
    strategy: str
    num_nodes: int = 32
    seed: int = 1234
    scale: str = "small"
    config: ExecutionConfig = field(default_factory=ExecutionConfig)
    topology_case: Optional[str] = None
    kind: str = "sim"
    params: tuple = ()
    trace: bool = False
    #: fault-injection plan; ``None`` (or a null plan) runs fault-free and
    #: serializes to nothing, so pre-existing cache keys stay stable.
    faults: Optional[FaultPlan] = None
    #: extra :class:`repro.session.Session` constructor overrides as
    #: ``(key, value)`` pairs (see ``session.OVERRIDABLE``), e.g.
    #: ``(("contention", True),)``.  Empty serializes to nothing.
    session_overrides: tuple = ()

    def canonical(self) -> dict:
        """Canonical, JSON-ready form (stable field order via sort_keys)."""
        out = {
            "workload": self.workload,
            "strategy": self.strategy,
            "num_nodes": self.num_nodes,
            "seed": self.seed,
            "scale": self.scale,
            "config": asdict(self.config),
            "topology_case": self.topology_case,
        }
        # Non-default-only: keeps pre-existing cache keys stable.
        if self.kind != "sim":
            out["kind"] = self.kind
        if self.params:
            out["params"] = [list(kv) for kv in self.params]
        if self.trace:
            out["trace"] = True
        if self.faults is not None and not self.faults.is_null():
            out["faults"] = self.faults.canonical()
        if self.session_overrides:
            out["session_overrides"] = [list(kv) for kv in self.session_overrides]
        return out

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def canonical_json(self) -> str:
        return json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":"), default=repr
        )

    def content_hash(self) -> str:
        """Hex digest identifying this request's semantics (no version salt
        — the result cache adds its own)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ------------------------------------------------------------------
    # versioned wire schema (the service, the CLI, and cache keys all
    # route through canonical(); the wire form is canonical() plus an
    # explicit api_version stamp)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """JSON-ready dict of this request for transport: the canonical
        form stamped with :data:`API_VERSION`."""
        return {"api_version": API_VERSION, **self.canonical()}

    def to_json(self) -> str:
        """The versioned wire serialization (strict JSON — a request
        whose fields are not JSON-representable is a caller bug and
        raises rather than silently degrading to ``repr``)."""
        return json.dumps(self.to_wire(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_wire(cls, doc: object) -> "RunRequest":
        """Rebuild a request from :meth:`to_wire` output.

        Strict by design: unknown fields, a wrong ``api_version``, and
        ill-typed values all raise :class:`WireFormatError` with the
        offending names spelled out — a client speaking a newer schema
        gets a clear rejection instead of a silently-dropped knob.
        """
        if not isinstance(doc, dict):
            raise WireFormatError(
                f"RunRequest wire form must be a JSON object, "
                f"got {type(doc).__name__}"
            )
        doc = dict(doc)
        if "api_version" not in doc:
            raise WireFormatError(
                "missing required field 'api_version' "
                f"(this build speaks version {API_VERSION})"
            )
        version = doc.pop("api_version")
        if version != API_VERSION:
            raise WireFormatError(
                f"unsupported api_version {version!r}; this build speaks "
                f"version {API_VERSION}"
            )
        unknown = sorted(set(doc) - _WIRE_FIELDS)
        if unknown:
            raise WireFormatError(
                f"unknown RunRequest field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(_WIRE_FIELDS))}"
            )
        for required in ("workload", "strategy"):
            if required not in doc:
                raise WireFormatError(f"missing required field {required!r}")
        kwargs: dict = {}
        kwargs["workload"] = _wire_str(doc, "workload")
        kwargs["strategy"] = _wire_str(doc, "strategy")
        for name in ("num_nodes", "seed"):
            if name in doc:
                kwargs[name] = _wire_int(doc, name)
        if "scale" in doc:
            kwargs["scale"] = _wire_str(doc, "scale")
        if "kind" in doc:
            kwargs["kind"] = _wire_str(doc, "kind")
        if doc.get("topology_case") is not None:
            kwargs["topology_case"] = _wire_str(doc, "topology_case")
        if "trace" in doc:
            if not isinstance(doc["trace"], bool):
                raise WireFormatError("field 'trace' must be a boolean")
            kwargs["trace"] = doc["trace"]
        if "config" in doc and doc["config"] is not None:
            kwargs["config"] = _wire_config(doc["config"])
        if doc.get("faults") is not None:
            try:
                kwargs["faults"] = FaultPlan.from_canonical(doc["faults"])
            except WireFormatError:
                raise
            except Exception as exc:
                raise WireFormatError(f"invalid 'faults' plan: {exc}") from exc
        for name in ("params", "session_overrides"):
            if name in doc:
                kwargs[name] = _wire_pairs(doc, name)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunRequest":
        """Parse :meth:`to_json` output (or any conforming JSON)."""
        try:
            doc = json.loads(text)
        except (ValueError, TypeError) as exc:
            raise WireFormatError(f"request is not valid JSON: {exc}") from exc
        return cls.from_wire(doc)

    def label(self) -> str:
        """Short human-readable cell label for logs and errors."""
        case = f"/{self.topology_case}" if self.topology_case else ""
        kind = f"[{self.kind}]" if self.kind != "sim" else ""
        faults = ""
        if self.faults is not None and not self.faults.is_null():
            faults = "/faults"
        return (
            f"{self.workload}:{self.strategy}{kind}{case}"
            f"@{self.num_nodes}n/seed{self.seed}/{self.scale}{faults}"
        )


def execute_request(req: RunRequest) -> "RunMetrics":
    """Simulate one cell.  Pure: the result depends only on ``req``.

    Dispatch is one table (:data:`KIND_EXECUTORS`) — the serial path,
    the process-pool workers, and the cache-fill path all come through
    here, so the three are bit-identical by construction.  Imports in
    the executors are deferred so that :mod:`repro.runner` can be
    imported from inside :mod:`repro.experiments` modules without a
    cycle, and so pool workers pay the import cost once per process.
    """
    faulty = req.faults is not None and not req.faults.is_null()
    if faulty and req.kind != "sim":
        raise ValueError(
            f"fault plans apply only to kind='sim' strategy cells, "
            f"not {req.label()}"
        )
    try:
        executor = KIND_EXECUTORS[req.kind]
    except KeyError:
        raise ValueError(f"unknown request kind {req.kind!r}") from None
    return executor(req)


def _attach_trace_extras(metrics: "RunMetrics", tracer) -> "RunMetrics":
    if tracer is not None:
        # flat tuples: picklable across the pool, identical serial/parallel
        metrics.extra["trace_records"] = tracer.records
        metrics.extra["trace_dropped"] = tracer.dropped
    return metrics


def _execute_sim(req: RunRequest) -> "RunMetrics":
    """A scheduled run (Table I/III, fig5, faults, topologies)."""
    from repro.session import Session

    sess = Session.from_request(req)
    return _attach_trace_extras(sess.run(), sess.tracer)


def _execute_optimal(req: RunRequest) -> "RunMetrics":
    """The Table-II bound as a degenerate metrics row (zero overhead)."""
    from repro.balancers import RunMetrics
    from repro.experiments.common import workload
    from repro.optimal import optimal_efficiency

    spec = workload(req.workload, req.scale)
    trace = spec.build(req.num_nodes)
    mu = optimal_efficiency(trace, req.num_nodes)
    ts = trace.total_work_seconds()
    n = req.num_nodes
    T = ts / (n * mu) if mu > 0 else 0.0
    metrics = RunMetrics(
        workload=req.workload,
        strategy="optimal",
        num_nodes=n,
        num_tasks=len(trace),
        nonlocal_tasks=0,
        T=T,
        Th=0.0,
        Ti=max(0.0, T - ts / n),
        efficiency=mu,
        Ts=ts,
    )
    metrics.extra["workload_label"] = spec.label
    return metrics


def _execute_fig4(req: RunRequest) -> "RunMetrics":
    """One Figure-4 cell: normalized MWA cost vs the flow optimum."""
    from repro.balancers import RunMetrics
    from repro.experiments.fig4 import fig4_point

    weight = int(req.param("weight", 10))
    cases = int(req.param("cases", 100))
    point = fig4_point(req.num_nodes, weight, cases=cases, seed=req.seed)
    metrics = RunMetrics(
        workload=req.workload,
        strategy=req.strategy,
        num_nodes=req.num_nodes,
        num_tasks=0,
        nonlocal_tasks=0,
        T=0.0,
        Th=0.0,
        Ti=0.0,
        efficiency=0.0,
        Ts=0.0,
    )
    metrics.extra.update(
        weight=point.weight,
        cases=point.cases,
        normalized_cost=point.normalized_cost,
        mean_cost_mwa=point.mean_cost_mwa,
        mean_cost_opt=point.mean_cost_opt,
    )
    return metrics


#: ``kind`` -> executor.  One table instead of special-cased branches;
#: new kinds register here.
KIND_EXECUTORS = {
    "sim": _execute_sim,
    "optimal": _execute_optimal,
    "fig4": _execute_fig4,
}


# ----------------------------------------------------------------------
# preemptible execution (executor timeout handling, `run --checkpoint-every`)
# ----------------------------------------------------------------------
class CellPreempted(RuntimeError):
    """A resumable cell hit its budget and checkpointed instead of dying.

    Picklable across the process pool (attributes mirror ``args`` so the
    unpickled exception is reconstructed intact).  ``checkpoint_path``
    is where the frozen state lives; re-running the same request through
    :func:`execute_request_resumable` resumes from it.
    """

    def __init__(self, label: str, request_hash: str, checkpoint_path: str,
                 events_executed: int, elapsed: float) -> None:
        super().__init__(label, request_hash, checkpoint_path,
                         events_executed, elapsed)
        self.label = label
        self.request_hash = request_hash
        self.checkpoint_path = checkpoint_path
        self.events_executed = events_executed
        self.elapsed = elapsed

    def __str__(self) -> str:
        return (
            f"cell {self.label} [{self.request_hash}] preempted after "
            f"{self.elapsed:.1f}s / {self.events_executed} events; "
            f"checkpoint at {self.checkpoint_path}"
        )


def default_checkpoint_path(req: RunRequest) -> Path:
    """Where a preempted cell parks its state: keyed by the request hash
    under the result cache, so retries (any process) find it."""
    from repro.runner.result_cache import result_cache_dir

    return result_cache_dir() / "checkpoints" / f"{req.content_hash()[:24]}.ckpt"


def execute_request_resumable(
    req: RunRequest,
    budget: Optional[float] = None,
    checkpoint_path: Optional[Path | str] = None,
    slice_events: int = PREEMPT_SLICE_EVENTS,
) -> "RunMetrics":
    """Like :func:`execute_request`, but budgeted and resumable.

    Runs the cell in ``slice_events`` slices; once ``budget`` wall-clock
    seconds have elapsed, the cell checkpoints to ``checkpoint_path``
    and raises :class:`CellPreempted`.  A later call for the same
    request *resumes* from the checkpoint instead of starting over —
    bit-identical to an uninterrupted run.  Non-``sim`` kinds have no
    checkpointable machine and fall back to :func:`execute_request`
    unbudgeted.
    """
    if req.kind != "sim":
        return execute_request(req)
    from repro.session import Session
    from repro.snapshot import Snapshot, SnapshotError

    path = Path(checkpoint_path) if checkpoint_path is not None \
        else default_checkpoint_path(req)
    sess = None
    if path.exists():
        try:
            sess = Session.restore(Snapshot.load(path))
        except SnapshotError:
            path.unlink(missing_ok=True)  # stale version / corrupt: restart
    if sess is None:
        sess = Session.from_request(req)
    t0 = time.monotonic()
    while True:
        metrics = sess.run(max_events=slice_events)
        if metrics is not None:
            path.unlink(missing_ok=True)
            return _attach_trace_extras(metrics, sess.tracer)
        if budget is not None and time.monotonic() - t0 >= budget:
            sess.checkpoint().save(path)
            raise CellPreempted(
                req.label(),
                req.content_hash()[:24],
                str(path),
                sess.machine.sim.events_processed,
                round(time.monotonic() - t0, 3),
            )
