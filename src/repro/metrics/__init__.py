"""Instrumentation and reporting.

The per-run measurement itself lives in
:class:`repro.balancers.base.RunMetrics` (it is produced by the driver);
this package holds the presentation helpers shared by the experiment
modules and the benchmarks.
"""

from repro.balancers.base import RunMetrics
from .report import format_series, format_table, percent, seconds

__all__ = [
    "RunMetrics",
    "format_series",
    "format_table",
    "percent",
    "seconds",
]
