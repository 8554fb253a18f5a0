"""fig_faults: strategy degradation under injected faults.

The paper's evaluation assumes a fault-free machine; this experiment
measures what each scheduling strategy gives up when the machine is not —
sweeping message-drop rates and fail-stop crash counts over the Table-I
workloads and reporting slowdown, recovery traffic, and task losses per
strategy.  RIPS runs its hardened protocol (ack/retransmit envelope,
collective-tree rebuild, phase abandon); the comparison strategies get
the same envelope for task transfers, so every run completes and every
task is conserved — what differs is the price.

Every cell is a normal :class:`~repro.runner.spec.RunRequest` with a
:class:`~repro.faults.FaultPlan` attached, so the grid fans out over the
process pool and caches like any other experiment; the fault-free
baseline cells are byte-identical to their Table-I counterparts and share
their cache entries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.balancers import RunMetrics
from repro.faults import FaultPlan
from repro.metrics import format_table, percent, seconds
from repro.runner import RunRequest

from .common import STRATEGY_ORDER, current_scale, workloads

__all__ = [
    "DEFAULT_CRASH_AT",
    "DEFAULT_DROP_RATES",
    "DEFAULT_FAULT_SEED",
    "build_requests",
    "fault_levels",
    "render",
]

#: drop-rate sweep points (per-transmission probability).
DEFAULT_DROP_RATES = (0.01, 0.05)
#: sim time of the first crash — early enough to hit every small-scale
#: run mid-flight (small-scale makespans are ~0.02-0.2 s; paper scale
#: is larger, so the crash lands even earlier in relative terms).
DEFAULT_CRASH_AT = 0.01
#: seed of the fault RNG (independent of the machine seed).
DEFAULT_FAULT_SEED = 404


def fault_levels(
    num_nodes: int = 32,
    fault_seed: int = DEFAULT_FAULT_SEED,
    drop_rates: Sequence[float] = DEFAULT_DROP_RATES,
    crash_counts: Sequence[int] = (1,),
    crash_at: float = DEFAULT_CRASH_AT,
    detectors: Sequence[str] = ("oracle",),
    partition_counts: Sequence[int] = (),
) -> list[tuple[str, Optional[FaultPlan]]]:
    """The fault sweep: a fault-free baseline, then drops, then crashes,
    then (optionally) scheduled mesh partitions.

    Crash levels kill ``count`` distinct ranks spread across the machine
    (never rank 0, which keeps the baseline RIPS root comparable),
    staggered ``crash_at`` apart starting at ``crash_at``.  Each crash
    and partition level is emitted once per entry of ``detectors``
    (``"oracle"`` and/or ``"heartbeat"``); non-oracle levels carry a
    ``-hb`` style suffix.  Partition levels cut the machine into two
    contiguous halves ``count`` times, each cut lasting ``crash_at`` and
    healing before the next.
    """
    for det in detectors:
        if det not in ("oracle", "heartbeat"):
            raise ValueError(f"unknown detector {det!r}")

    def suffix(det: str) -> str:
        return "" if det == "oracle" else f"-{det[:2]}"

    levels: list[tuple[str, Optional[FaultPlan]]] = [("none", None)]
    for rate in drop_rates:
        levels.append(
            (f"drop-{rate:g}", FaultPlan.lossy(rate, seed=fault_seed)))
    for count in crash_counts:
        if not 0 < count < num_nodes - 1:
            raise ValueError(
                f"crash count {count} out of range for {num_nodes} nodes")
        crashes = tuple(
            ((i + 1) * num_nodes // (count + 1), crash_at * (i + 1))
            for i in range(count)
        )
        for det in detectors:
            levels.append((f"crash-{count}{suffix(det)}",
                           FaultPlan.fail_stop(crashes, seed=fault_seed,
                                               detector=det)))
    halves = (tuple(range(num_nodes // 2)),
              tuple(range(num_nodes // 2, num_nodes)))
    for count in partition_counts:
        if count < 1:
            raise ValueError(f"partition count {count} must be >= 1")
        cuts = tuple(
            (crash_at * (2 * i + 1), crash_at, halves) for i in range(count)
        )
        for det in detectors:
            levels.append((f"part-{count}{suffix(det)}",
                           FaultPlan.partitioned(cuts, seed=fault_seed,
                                                 detector=det)))
    return levels


def build_requests(
    workload_keys: Optional[Sequence[str]] = None,
    strategies: Sequence[str] = STRATEGY_ORDER,
    num_nodes: int = 32,
    scale: Optional[str] = None,
    seed: int = 1234,
    fault_seed: int = DEFAULT_FAULT_SEED,
    drop_rates: Sequence[float] = DEFAULT_DROP_RATES,
    crash_counts: Sequence[int] = (1,),
    crash_at: float = DEFAULT_CRASH_AT,
    detectors: Sequence[str] = ("oracle",),
    partition_counts: Sequence[int] = (),
    audit: bool = False,
) -> list[RunRequest]:
    """The fault grid: workloads x fault levels x strategies.

    ``workload_keys=None`` picks one representative Table-I workload (the
    middle N-Queens size at the chosen scale).  ``audit=True`` attaches
    the tracer to every cell so the caller can run the task-conservation
    audit over the records (traced cells bypass the result cache).
    """
    scale = current_scale(scale)
    if workload_keys is None:
        workload_keys = (workloads(scale)[1].key,)
    levels = fault_levels(
        num_nodes=num_nodes,
        fault_seed=fault_seed,
        drop_rates=drop_rates,
        crash_counts=crash_counts,
        crash_at=crash_at,
        detectors=detectors,
        partition_counts=partition_counts,
    )
    return [
        RunRequest(
            workload=key,
            strategy=strat,
            num_nodes=num_nodes,
            seed=seed,
            scale=scale,
            faults=plan,
            trace=audit,
        )
        for key in workload_keys
        for _name, plan in levels
        for strat in strategies
    ]


def faults_rows(metrics: Sequence[RunMetrics]) -> list[dict]:
    """Flatten fault-grid metrics into table rows with per-strategy
    slowdowns relative to each (workload, strategy) fault-free baseline."""
    baseline: dict[tuple[str, str], float] = {}
    for m in metrics:
        if "fault_stats" not in m.extra:
            baseline[(m.workload, m.strategy)] = m.T
    rows = []
    for m in metrics:
        fs = m.extra.get("fault_stats")
        base = baseline.get((m.workload, m.strategy))
        rows.append(
            {
                "workload": m.extra.get("workload_label", m.workload),
                "strategy": m.strategy,
                "faults": m.extra.get("fault_plan", "fault-free"),
                "T": seconds(m.T),
                "mu": percent(m.efficiency),
                "slowdown": f"{m.T / base:.2f}x" if base else "-",
                "crashed": len(m.extra.get("crashed_nodes", ())),
                "lost": m.extra.get("lost_tasks", 0),
                "drops": (fs["drops"] + fs["outage_drops"]) if fs else 0,
                "retx": fs["retransmits"] if fs else 0,
            }
        )
    return rows


def render(results: Sequence[RunMetrics]) -> str:
    """Render runner results (in request order) as the fault table."""
    num_nodes = results[0].num_nodes if results else 32
    return format_table(
        faults_rows(results),
        title=(f"Degradation under injected faults on {num_nodes} processors "
               "(fig_faults)"),
    )
