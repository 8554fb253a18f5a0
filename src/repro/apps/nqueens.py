"""Exhaustive N-Queens search — the paper's first test application.

"The exhaustive search of the N-queens problem has an irregular and
dynamic structure.  The number of tasks generated and the computation
amount in each task are unpredictable."

The parallel decomposition is the classic prefix split (Feeley-style):
the search tree is expanded breadth-first down to ``split_depth``; every
consistent placement of the first ``split_depth`` queens becomes an
independent *solver task* that exhausts its subtree sequentially.  The
interior prefix nodes are cheap *expander tasks* whose children are the
next level — so tasks really are generated dynamically, level by level,
exactly the structure the balancers see on the real machine.

Work units are **search-tree node visits** of the real backtracking
solver (bitmask representation: one bit per attacked column/diagonal).
The default ``sec_per_unit`` of 2 microseconds/visit calibrates total
sequential time to the same ballpark as the paper's i860 Paragon runs
(15-Queens: a few hundred seconds sequential; see EXPERIMENTS.md).

The solver tasks' subtrees are counted together, one board row at a
time, in numpy: each step places a queen on every free square of a
bounded slice of one row's nodes and sums the visits and solutions per
task, so the counts are those of a depth-first backtracking search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace

__all__ = ["QueensConfig", "nqueens_trace", "solve_queens", "count_solutions"]

#: seconds of simulated CPU per search-tree node visit
SEC_PER_VISIT = 2e-6

#: fixed-width integer of the column/diagonal masks and task ids
_MASK = np.uint32

#: the largest board the masks hold
MAX_N = np.iinfo(_MASK).bits

#: most children the subtree counter places in one step
_CHUNK_NODES = 1 << 14


@dataclass(frozen=True)
class QueensConfig:
    """Parameters of one N-Queens workload."""

    n: int = 13
    split_depth: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}]")
        if not 0 <= self.split_depth <= self.n:
            raise ValueError("split_depth must be in [0, n]")


def solve_queens(n: int, cols: int = 0, d1: int = 0, d2: int = 0) -> tuple[int, int]:
    """Count solutions and node visits of the subtree rooted at a partial
    placement (bitmask state).  Returns ``(solutions, visits)``."""
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}")
    sols, visits = _subtree_counts(n, [cols], [d1], [d2])
    return int(sols[0]), int(visits[0])


def count_solutions(n: int) -> int:
    """Total solutions of the n-queens problem (reference oracle)."""
    return solve_queens(n)[0]


def _subtree_counts(n: int, cols, d1, d2) -> tuple[np.ndarray, np.ndarray]:
    """``(solutions, visits)`` per task of the subtrees below the partial
    placements ``(cols[i], d1[i], d2[i])``, as int64 arrays.

    A *level* is a ``(5, k)`` array of nodes: rows cols, d1, d2, task
    and free squares.  Levels with children wait on a stack, the newest
    on top, sorted by their number of free squares.  Each step expands a
    slice of the top level that has at most ``_CHUNK_NODES`` children
    (or one node), so the stack holds at most that many nodes per row.
    """
    full = (1 << n) - 1
    tasks = len(cols)
    sols = np.zeros(tasks, np.int64)
    visits = np.zeros(tasks, np.int64)
    level = np.empty((5, tasks), _MASK)
    level[0], level[1], level[2] = cols, d1, d2
    level[3] = np.arange(tasks)
    stack: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        c, left, right, t, free = level
        visits += np.bincount(t, minlength=tasks)
        done = c == full
        if done.any():
            sols += np.bincount(t[done], minlength=tasks)
        np.bitwise_or(c, left, out=free)
        free |= right
        np.invert(free, out=free)
        free &= full
        fan = np.bitwise_count(free)
        # a stable sort of 8-bit keys is a radix sort
        order = np.argsort(fan, kind="stable")[::-1][:np.count_nonzero(fan)]
        if len(order):
            stack.append((level[:, order], fan[order]))
        if not stack:
            return sols, visits
        level, fan = stack.pop()
        take = max(1, _CHUNK_NODES // int(fan[0]))
        if take < len(fan):
            stack.append((level[:, take:], fan[take:]))
            level, fan = level[:, :take], fan[:take]
        level = _children(level, fan, full)


def _children(level: np.ndarray, fan: np.ndarray, full: int) -> np.ndarray:
    """Every child of ``level``'s nodes, as a level (free squares unset).

    ``fan`` (each node's number of free squares) is in descending
    order, so the nodes with a j-th free square are a prefix: pass j
    places a queen on the lowest free square left on each of them and
    clears that square in ``level``'s free row.
    """
    c, left, right, t, free = level
    # widths[j - 1]: the nodes with at least j free squares
    widths = np.cumsum(np.bincount(fan)[::-1])[::-1][1:].tolist()
    out = np.empty((5, sum(widths)), _MASK)
    end = 0
    for k in widths:
        start, end = end, end + k
        f = free[:k]
        bit = np.negative(f)
        bit &= f
        f ^= bit
        np.bitwise_or(c[:k], bit, out=out[0, start:end])
        d = np.bitwise_or(left[:k], bit, out=out[1, start:end])
        d <<= 1
        d &= full
        d = np.bitwise_or(right[:k], bit, out=out[2, start:end])
        d >>= 1
        out[3, start:end] = t[:k]
    return out


def _build(config: QueensConfig) -> WorkloadTrace:
    n = config.n
    full = (1 << n) - 1
    tasks: list[TraceTask] = []

    # Expand the prefix tree breadth-first.  Each frontier entry is
    # (task_id, cols, d1, d2); ids are assigned in BFS order so parents
    # precede children.
    root_id = 0
    tasks.append(None)  # type: ignore[arg-type]  # placeholder, fixed below
    frontier = [(root_id, 0, 0, 0)]
    next_id = 1
    for depth in range(config.split_depth):
        new_frontier = []
        for (tid, c, l, r) in frontier:
            free = full & ~(c | l | r)
            child_ids = []
            states = []
            while free:
                bit = free & -free
                free ^= bit
                child_ids.append(next_id)
                states.append(
                    (next_id, c | bit, ((l | bit) << 1) & full, (r | bit) >> 1)
                )
                next_id += 1
            # expander work: generating the children (1 visit + 1/child)
            tasks[tid] = TraceTask(
                tid, work=1.0 + len(child_ids), children=tuple(child_ids),
                label=f"expand-d{depth}",
            )
            for st in states:
                tasks.append(None)  # type: ignore[arg-type]
            new_frontier.extend(states)
        frontier = new_frontier

    ids, cols, d1, d2 = zip(*frontier) if frontier else ((),) * 4
    sols, visits = _subtree_counts(n, cols, d1, d2)
    solutions = int(sols.sum())
    for tid, v in zip(ids, visits.tolist()):
        tasks[tid] = TraceTask(tid, work=float(v), label="solve")

    trace = WorkloadTrace(
        f"{n}-queens",
        tasks,
        sec_per_unit=SEC_PER_VISIT,
        description=(
            f"exhaustive {n}-queens, prefix split at depth "
            f"{config.split_depth}; {solutions} solutions"
        ),
    )
    return trace


def nqueens_trace(n: int = 13, split_depth: int = 4, use_cache: bool = True) -> WorkloadTrace:
    """Workload trace for exhaustive N-Queens (disk-cached by default)."""
    config = QueensConfig(n=n, split_depth=split_depth)
    params = {"n": n, "split_depth": split_depth, "v": 1}
    if not use_cache:
        return _build(config)
    return cached_trace("nqueens", params, lambda: _build(config))
