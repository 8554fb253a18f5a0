"""The front-door API: one builder for a complete scheduled run.

Four PRs of growth left four overlapping ways to start a simulation
(``run_trace``, hand-wired ``Driver``s, ``RunRequest`` execution, the
per-experiment helpers).  :class:`Session` replaces the ad-hoc wiring:
it owns the Machine / Driver / Tracer / FaultInjector assembly, in one
fixed order, and every entry point — the CLI ``run``/``trace``/
``faults`` commands, :func:`repro.experiments.common.run_workload`, and
the runner's ``kind="sim"`` cells — builds its run through it.

>>> from repro.session import Session
>>> round(Session("queens-10", strategy="RIPS", num_nodes=8).run().efficiency, 3)
0.504

A session moves through three stages:

``spec``
    Nothing built; the constructor only records what to run.
``prepared``
    Workload trace + bare machine exist.  Nothing strategy-, fault- or
    config-specific is built yet, so :meth:`Session.fork` here can still
    choose those for each copy.
``wired``
    Tracer attached, fault plan installed, strategy constructed,
    :class:`~repro.balancers.base.Driver` built.  Reached lazily on the
    first :meth:`run`.

Checkpoint/restore (:meth:`checkpoint`, :meth:`Session.restore`,
:meth:`fork`) works at either built stage and is bit-identical: a
restored session that runs to completion produces exactly the metrics,
tracer records, and audit stream of an uninterrupted run.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.balancers import ExecutionConfig, RunMetrics, Strategy
from repro.balancers.base import Driver
from repro.machine import Machine, MeshTopology, mesh_shape_for
from repro.machine.topology import Topology, make_topology
from repro.snapshot import Snapshot, SnapshotError, capture
from repro.tasks.trace import WorkloadTrace

__all__ = ["Session"]

#: Session constructor knobs that a RunRequest may override via
#: ``session_overrides`` (kept scalar/hashable for canonical hashing).
OVERRIDABLE = ("topology", "contention")


class Session:
    """One scheduled run: workload × machine × strategy (× faults × trace).

    Parameters
    ----------
    workload:
        A workload key (``"queens-12"``), a
        :class:`~repro.experiments.common.WorkloadSpec`, or an already
        built :class:`~repro.tasks.trace.WorkloadTrace`.
    topology:
        ``None`` for the paper's default mesh at ``num_nodes``, a kind
        string (``"hypercube"``), or a :class:`Topology` instance.
    strategy:
        A strategy name (resolved through
        :func:`repro.experiments.common.strategy_factories`, so per-
        workload tuning like RID's update factor applies) or a
        :class:`~repro.balancers.base.Strategy` instance.
    faults:
        Optional :class:`repro.faults.FaultPlan`; null plans are no-ops.
    trace:
        ``True`` to attach a fresh :class:`repro.obs.Tracer`, or a
        tracer instance; ``None``/``False`` runs untraced.
    seed, num_nodes, scale, config, contention:
        As elsewhere in the harness.
    """

    def __init__(
        self,
        workload: Union[str, WorkloadTrace, object],
        topology: Union[None, str, Topology] = None,
        strategy: Union[str, Strategy] = "RIPS",
        *,
        num_nodes: int = 32,
        seed: int = 1234,
        scale: Optional[str] = None,
        config: ExecutionConfig = ExecutionConfig(),
        faults=None,
        trace=None,
        contention: bool = False,
    ) -> None:
        self.workload = workload
        self.topology = topology
        self.strategy = strategy
        self.num_nodes = num_nodes
        self.seed = seed
        self.scale = scale
        self.config = config
        self.faults = faults
        self.contention = contention
        self.tracer = self._coerce_tracer(trace)
        self.workload_label: Optional[str] = None
        self._trace: Optional[WorkloadTrace] = None
        self._machine: Optional[Machine] = None
        self._driver: Optional[Driver] = None
        self._stage = "spec"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_tracer(trace):
        if trace is None or trace is False:
            return None
        if trace is True:
            from repro.obs import Tracer

            return Tracer()
        return trace

    @property
    def stage(self) -> str:
        """``"spec"`` → ``"prepared"`` → ``"wired"``."""
        return self._stage

    @property
    def machine(self) -> Machine:
        self.prepare()
        return self._machine

    @property
    def driver(self) -> Driver:
        self._wire()
        return self._driver

    def _workload_spec(self):
        """Resolve ``self.workload`` to a WorkloadSpec, or None for a
        raw trace."""
        if isinstance(self.workload, WorkloadTrace):
            return None
        if isinstance(self.workload, str):
            from repro.experiments.common import workload as lookup

            return lookup(self.workload, self.scale)
        return self.workload  # assume WorkloadSpec-like

    def _workload_kind(self) -> str:
        spec = self._workload_spec()
        return spec.kind if spec is not None else ""

    def _build_machine(self) -> Machine:
        topo = self.topology
        if topo is None:
            # exactly the paper's machine (experiments.common.make_machine)
            topo = MeshTopology(*mesh_shape_for(self.num_nodes))
        elif isinstance(topo, str):
            topo = make_topology(topo, self.num_nodes)
        return Machine(topo, seed=self.seed, contention=self.contention)

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def prepare(self) -> "Session":
        """Build the workload trace (through the trace disk cache) and the
        bare machine (idempotent)."""
        if self._stage != "spec":
            return self
        spec = self._workload_spec()
        if spec is not None:
            self.workload_label = spec.label
        if isinstance(self.workload, WorkloadTrace):
            self._trace = self.workload
        else:
            self._trace = spec.build(self.num_nodes)
        self._machine = self._build_machine()
        # the trace must survive checkpoint/restore with the machine
        self._machine.register_snapshot_root("trace", self._trace)
        self._stage = "prepared"
        return self

    def _wire(self) -> "Session":
        """Attach tracer + faults, build strategy and driver (idempotent).

        Order is load-bearing and matches the pre-Session wiring
        (``run_workload``/``run_trace``) exactly: faults before the
        driver so the driver sees the injector; tracer before the run so
        every record is captured.
        """
        if self._stage == "wired":
            return self
        self.prepare()
        machine = self._machine
        if self.tracer is not None:
            machine.attach_tracer(self.tracer)
        if self.faults is not None and machine.faults is None:
            machine.attach_faults(self.faults)
        strategy = self.strategy
        if isinstance(strategy, str):
            from repro.experiments.common import strategy_factories

            factories = strategy_factories(self._workload_kind(), self.num_nodes)
            try:
                strategy = factories[strategy]()
            except KeyError:
                raise KeyError(
                    f"unknown strategy {strategy!r}; "
                    f"available: {', '.join(factories)}"
                ) from None
            self.strategy = strategy
        self._driver = Driver(machine, self._trace, strategy, self.config)
        self._stage = "wired"
        return self

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> Optional[RunMetrics]:
        """Run (or resume) the session.

        Without a budget, runs to completion and returns the
        :class:`RunMetrics`.  With ``max_events``, runs one slice of at
        most that many events: returns the metrics if the workload
        completed inside the slice, else ``None`` (checkpoint and call
        :meth:`run` again).
        """
        self._wire()
        self._driver.start_once()
        self._machine.run(max_events)
        if self._machine.sim.pending() > 0:
            return None  # stopped by the slice limit, more work queued
        metrics = self._driver.finish()
        if self.workload_label is not None:
            metrics.extra["workload_label"] = self.workload_label
        return metrics

    def progress(self) -> tuple[int, float]:
        """``(events_processed, sim_now)`` for a session that has run at
        least one slice — the pair every supervisor/progress frame needs,
        without reaching through ``machine.sim`` internals.  ``(0, 0.0)``
        before the machine exists."""
        if self._machine is None:
            return (0, 0.0)
        sim = self._machine.sim
        return (sim.events_processed, sim.now)

    # ------------------------------------------------------------------
    # checkpoint / restore / fork
    # ------------------------------------------------------------------
    def checkpoint(self, meta: Optional[dict] = None) -> Snapshot:
        """Freeze the session into a :class:`repro.snapshot.Snapshot`.

        Valid at the prepared or wired stage (a spec-stage session is
        prepared first).  The session itself keeps running; the snapshot
        records enough metadata for :meth:`Session.restore` to rebuild
        an equivalent session around the restored machine.
        """
        self.prepare()
        meta = dict(meta or {})
        meta.update(
            kind="session",
            stage=self._stage,
            workload_key=self.workload if isinstance(self.workload, str) else None,
            workload_label=self.workload_label,
            scale=self.scale,
            num_nodes=self.num_nodes,
            seed=self.seed,
            started=bool(self._driver is not None and self._driver.started),
        )
        return capture(self._machine, meta)

    @classmethod
    def restore(cls, snapshot: Snapshot) -> "Session":
        """Rebuild a session from :meth:`checkpoint` output.

        A wired snapshot restores to a wired session (same driver,
        strategy, tracer, fault state — resuming is bit-identical to
        never having stopped).  A prepared snapshot restores to a
        prepared session whose strategy/faults/tracer can still be
        chosen (see :meth:`fork`).
        """
        from repro.snapshot import restore as restore_machine

        meta = snapshot.meta
        machine = restore_machine(snapshot)
        sess = cls.__new__(cls)
        sess.workload = meta.get("workload_key")
        sess.topology = None
        sess.strategy = "RIPS"
        sess.num_nodes = meta.get("num_nodes", machine.num_nodes)
        sess.seed = meta.get("seed", 1234)
        sess.scale = meta.get("scale")
        sess.config = ExecutionConfig()
        sess.faults = machine.faults.plan if machine.faults is not None else None
        sess.contention = False
        sess.tracer = machine.tracer
        sess.workload_label = meta.get("workload_label")
        sess._machine = machine
        sess._trace = machine.snapshot_root("trace")
        if sess._trace is None:
            raise SnapshotError(
                "snapshot carries no workload trace root; was it captured "
                "through Machine.checkpoint() on a bare machine? "
                "Re-create it via Session.checkpoint()"
            )
        driver = machine.snapshot_root("driver")
        if driver is not None:
            sess._driver = driver
            sess.strategy = driver.strategy
            sess.config = driver.config
            sess._stage = "wired"
        else:
            sess._driver = None
            sess._stage = "prepared"
        if sess.workload is None:
            sess.workload = sess._trace
        return sess

    def fork(self, **overrides) -> "Session":
        """An independent copy of this session via an in-memory
        checkpoint/restore round trip.

        At the prepared stage, ``overrides`` (``strategy=``, ``faults=``,
        ``trace=``, ``config=``) select what the fork will wire — the
        sweep-cell idiom:

        >>> base = Session("queens-10", num_nodes=8).prepare()
        >>> runs = {s: base.fork(strategy=s).run()
        ...         for s in ("random", "RIPS")}    # doctest: +SKIP
        """
        sess = Session.restore(self.checkpoint())
        if overrides and sess._stage == "wired":
            raise SnapshotError(
                "cannot override strategy/faults/config on a wired fork; "
                "fork before the first run() call"
            )
        for key in ("strategy", "faults", "config"):
            if key in overrides:
                setattr(sess, key, overrides.pop(key))
        if "trace" in overrides:
            sess.tracer = self._coerce_tracer(overrides.pop("trace"))
        if overrides:
            raise TypeError(f"unknown fork overrides: {sorted(overrides)}")
        return sess

    # ------------------------------------------------------------------
    # interop constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_request(cls, req) -> "Session":
        """Build the session for one ``kind="sim"`` RunRequest cell
        (``req.session_overrides`` become constructor overrides)."""
        overrides = dict(getattr(req, "session_overrides", ()) or ())
        unknown = set(overrides) - set(OVERRIDABLE)
        if unknown:
            raise ValueError(
                f"unsupported session_overrides {sorted(unknown)}; "
                f"supported: {OVERRIDABLE}"
            )
        faulty = req.faults is not None and not req.faults.is_null()
        return cls(
            req.workload,
            strategy=req.strategy,
            num_nodes=req.num_nodes,
            seed=req.seed,
            scale=req.scale,
            config=req.config,
            faults=req.faults if faulty else None,
            trace=bool(req.trace),
            **overrides,
        )

    @classmethod
    def from_parts(
        cls,
        trace: WorkloadTrace,
        strategy: Strategy,
        machine: Machine,
        config: ExecutionConfig = ExecutionConfig(),
        tracer=None,
    ) -> "Session":
        """Adopt pre-built parts (the legacy ``run_trace`` signature).

        The machine may already carry an attached tracer or fault
        injector; the session wires exactly what ``run_trace`` did:
        attach ``tracer`` if given, then build the driver.
        """
        sess = cls.__new__(cls)
        sess.workload = trace
        sess.topology = machine.topology
        sess.strategy = strategy
        sess.num_nodes = machine.num_nodes
        sess.seed = 0
        sess.scale = None
        sess.config = config
        sess.faults = machine.faults.plan if machine.faults is not None else None
        sess.contention = False
        sess.tracer = tracer if tracer is not None else machine.tracer
        sess.workload_label = None
        sess._trace = trace
        sess._machine = machine
        machine.register_snapshot_root("trace", trace)
        if tracer is not None:
            machine.attach_tracer(tracer)
        sess._driver = Driver(machine, trace, strategy, config)
        sess._stage = "wired"
        return sess

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        wl = self.workload if isinstance(self.workload, str) else (
            self.workload_label or "<trace>")
        strat = (self.strategy if isinstance(self.strategy, str)
                 else type(self.strategy).__name__)
        return (f"Session({wl!r}, strategy={strat!r}, "
                f"num_nodes={self.num_nodes}, stage={self._stage!r})")
