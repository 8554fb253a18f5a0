"""Observability: structured sim-time tracing for the whole stack.

The paper's claims are *time-decomposition* claims — Table I splits the
makespan into task time, overhead ``Th``, and idle ``Ti``, and the phase
protocol of Section 2 only makes sense if one can see where a system
phase spends its steps.  This package provides the instrumentation layer
that makes those decompositions inspectable per node and per simulated
instant instead of only as end-of-run aggregates:

* :class:`Tracer` — span/counter/instant records keyed by simulated time
  and node id, with a zero-cost-when-untraced contract: producers hold
  ``None`` when untraced and guard emission with a single
  ``tracer is None`` check, and the simulator keeps its untraced hot
  loop byte-for-byte identical;
* :mod:`repro.obs.attribution` — the one reader of the records: a
  containment sweep per ``(node, cat)`` track that feeds the
  flamegraph rollup, the subsystem split, the per-node and phase
  tables of ``repro trace --report``, and the exact-zero
  :func:`~repro.obs.attribution.reconcile`;
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  JSONL exporters (open the JSON in https://ui.perfetto.dev).

Span categories
---------------
``cpu``    per-node CPU busy segments, named by cost category
           (``task`` / ``overhead``); the gaps are idle time.
``task``   one span per executed task, named ``task:<id>``.
``phase``  RIPS system-phase sub-steps per node per phase: ``init``
           (stop + drain), ``gather`` (load collection up the tree),
           ``plan`` (root-side planning), ``transfer`` (plan execution +
           waiting for migrations), plus a ``resume`` instant; wave
           barriers appear as ``wave-barrier:<k>`` spans on node 0.
``net``    message ``send:<kind>`` / ``recv:<kind>`` instants with
           src/dest/size/hops args; link counters on the contention
           network.
``mwa``    distributed Mesh-Walking-Algorithm protocol step instants.
``sim``    periodic event-loop counters (events processed, pending).
"""

from .tracer import Tracer
from .export import (
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl_trace,
)
from .metrics import (
    METRICS_SCHEMA,
    REPORT_SCHEMA,
    MetricsRegistry,
    make_report,
    percentile,
    validate_report,
)
from .attribution import (
    attribution_rollup,
    collapsed_stacks,
    subsystem_attribution,
)

__all__ = [
    "METRICS_SCHEMA",
    "REPORT_SCHEMA",
    "MetricsRegistry",
    "Tracer",
    "attribution_rollup",
    "collapsed_stacks",
    "make_report",
    "percentile",
    "subsystem_attribution",
    "trace_to_jsonl",
    "validate_report",
    "write_chrome_trace",
    "write_jsonl_trace",
]
