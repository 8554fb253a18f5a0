"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — strategy comparison on 32 procs;
* :mod:`repro.experiments.table2` — optimal efficiencies;
* :mod:`repro.experiments.table3` — speedups on 64/128 procs;
* :mod:`repro.experiments.fig4` — MWA vs optimal transfer cost;
* :mod:`repro.experiments.fig5` — normalized quality factors;
* :mod:`repro.experiments.topologies` — RIPS on a mesh, a tree, a
  hypercube and a crossbar (the paper's Section 5);
* :mod:`repro.experiments.faults` — strategy degradation under
  injected faults (fig_faults; beyond the paper's fault-free model).

Every module has one API: ``build_requests(...)`` returns the grid as
a list of :class:`~repro.runner.RunRequest` cells, and
``render(results)`` turns the metrics of those cells, in request
order, into the printed table or series.  The runner executes the
cells in between (:func:`repro.runner.run_requests`: serial or on a
process pool, through the result cache), and a ``kind="sim"`` cell
becomes a run only through :meth:`repro.session.Session.from_request`.
The CLI's grid commands are exactly this pipeline.

Scale selection: ``REPRO_SCALE=paper`` for the full evaluation-section
sizes, default ``small`` for CI-friendly runs (same code paths).
"""

from . import faults, fig4, fig5, table1, table2, table3, topologies
from .common import (
    STRATEGY_ORDER,
    WorkloadSpec,
    current_scale,
    make_machine,
    strategy_factories,
    workload,
    workloads,
)
from .faults import fault_levels
from .fig4 import Fig4Point, fig4_point
from .fig5 import quality_factor, quality_factors
from .table1 import table1_rows
from .table3 import TABLE3_WORKLOADS
from .topologies import TopologyCase, topology_cases

#: The experiment modules.  Each is ``build_requests(...) ->
#: list[RunRequest]`` plus ``render(results) -> str`` and nothing else
#: that runs a grid: the runner executes the requests.
EXPERIMENT_MODULES = (
    "table1", "table2", "table3", "fig4", "fig5", "topologies", "faults",
)

__all__ = [
    "EXPERIMENT_MODULES",
    "Fig4Point",
    "STRATEGY_ORDER",
    "TABLE3_WORKLOADS",
    "TopologyCase",
    "WorkloadSpec",
    "current_scale",
    "fault_levels",
    "faults",
    "fig4",
    "fig4_point",
    "fig5",
    "make_machine",
    "quality_factor",
    "quality_factors",
    "strategy_factories",
    "table1",
    "table1_rows",
    "table2",
    "table3",
    "topologies",
    "topology_cases",
    "workload",
    "workloads",
]
