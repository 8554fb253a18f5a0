"""Parallel IDA* search on the 15-puzzle — the paper's second application.

"Iterative deepening A* (IDA*) search is a good example of parallel
search techniques.  The sample problem is the 15-puzzle with three
different configurations.  The grain size may vary substantially, since
it dynamically depends on the currently estimated cost.  Also,
synchronization at each iteration reduces the effective parallelism."

Structure of the generated trace (one *wave* per IDA* iteration):

* a **driver task**, pinned to rank 0, re-expands the search root for
  the iteration.  It is sequential and pinned: this is the per-
  iteration synchronization bottleneck the paper blames for IDA*'s low
  efficiencies.  The next iteration's driver is a cross-wave child of
  the current one, so iterations are separated by a global barrier.
* **dynamically split search tasks**: a task owns a subtree of the
  cost-bounded (``f = g + h <= threshold``) search tree.  If the
  subtree is larger than ``split_budget`` node visits, the task acts as
  an *expander* — it spawns one child task per successor and does only
  the expansion work itself; otherwise it searches its subtree to
  exhaustion.  This is the recursive, on-demand task generation a real
  parallel IDA* uses ("the number of tasks generated ... are
  unpredictable"), and it bounds the task grain near ``split_budget``
  regardless of how lopsided the search tree is.

The search is *real*: thresholds, spawn structure and visit counts come
from actually running IDA* with the Manhattan heuristic.  Instances are
random-walk configurations (see DESIGN.md on the substitution for
Korf's instances); config #1 < #2 < #3 in difficulty, mirroring the
paper's three configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace
from .puzzle import SIDE, _GOAL_POS, _MOVES, manhattan, random_walk_instance

__all__ = ["IDAStarConfig", "PAPER_CONFIGS", "idastar_trace", "ida_star_sequential"]

#: seconds of simulated CPU per search node.  Calibrated so the three
#: configs' sequential times land in the paper's ballpark (about 7 s /
#: 32 s / 66 s; the paper's configs are roughly 10 s / 30 s / 150 s).
SEC_PER_VISIT = 6e-6

#: never split deeper than this many plies below the iteration root —
#: beyond it a subtree is searched in one task even if it exceeds the
#: budget (runaway fragmentation guard)
SPLIT_DEPTH_LIMIT = 28

#: ``_DIST[tile][cell]``: Manhattan distance of ``tile`` on ``cell`` from
#: its goal cell
_DIST = tuple(
    tuple(abs(r - gr) + abs(c - gc)
          for r, c in (divmod(cell, SIDE) for cell in range(SIDE * SIDE)))
    for gr, gc in (_GOAL_POS[tile] for tile in range(SIDE * SIDE))
)

#: ``_SUCC[blank][prev_blank + 1]``: the moves ``(dest, delta)`` of a blank
#: on ``blank`` that do not undo the last one; sliding ``tile`` from
#: ``dest`` into the blank changes the heuristic by ``delta[tile]``.  Each
#: move is one tuple, shared by every ``prev_blank``.
_SUCC = tuple(
    tuple(tuple(move for move in moves if move[0] != prev)
          for prev in range(-1, SIDE * SIDE))
    for moves in (
        [(dest, tuple(dist[blank] - dist[dest] for dist in _DIST))
         for dest in _MOVES[blank]]
        for blank in range(SIDE * SIDE))
)


@dataclass(frozen=True)
class IDAStarConfig:
    """One 15-puzzle workload (a random-walk instance + task grain)."""

    walk_steps: int
    seed: int
    #: subtree size (in node visits) above which a task splits
    split_budget: int = 400
    max_iterations: int = 40

    def __post_init__(self) -> None:
        if self.split_budget < 1:
            raise ValueError("split_budget must be >= 1")

    def board(self) -> tuple[int, ...]:
        return random_walk_instance(self.walk_steps, self.seed)


#: the three configurations standing in for the paper's config #1..#3
#: (instance difficulty approximately 1.1M / 5.4M / 11M search nodes,
#: solved at depth 46 / 44 / 50, each in 8 iterations)
PAPER_CONFIGS: dict[int, IDAStarConfig] = {
    1: IDAStarConfig(walk_steps=56, seed=23, split_budget=400),
    2: IDAStarConfig(walk_steps=64, seed=35, split_budget=400),
    3: IDAStarConfig(walk_steps=64, seed=5, split_budget=400),
}


def _bounded_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                 prev_blank: int) -> tuple[int, int, bool]:
    """Cost-bounded DFS.  Returns (min_exceed, visits, found).

    ``min_exceed`` is the smallest f that crossed the threshold (the
    next iteration's threshold candidate), or a large sentinel if the
    subtree was exhausted.
    """
    return _count(list(board), board.index(0), g, h, threshold, prev_blank)


def _count(lst: list[int], blank: int, g: int, h: int, threshold: int,
           prev_blank: int) -> tuple[int, int, bool]:
    """:func:`_bounded_dfs` on one mutable board whose blank is at
    ``blank``; each move is made and unmade in place."""
    visits = 1
    if h == 0:
        return threshold, visits, True
    min_exceed = 1 << 30
    g += 1
    for dest, delta in _SUCC[blank][prev_blank + 1]:
        tile = lst[dest]
        nh = h + delta[tile]
        nf = g + nh
        if nf > threshold:
            if nf < min_exceed:
                min_exceed = nf
            continue
        lst[blank], lst[dest] = tile, 0
        sub_exceed, sub_visits, found = _count(
            lst, dest, g, nh, threshold, blank
        )
        lst[dest], lst[blank] = tile, 0
        visits += sub_visits
        if found:
            return threshold, visits, True
        if sub_exceed < min_exceed:
            min_exceed = sub_exceed
    return min_exceed, visits, False


def ida_star_sequential(board: tuple[int, ...], max_iterations: int = 60
                        ) -> tuple[int, float, int]:
    """Plain sequential IDA*.  Returns (solution_depth, visits, iterations).

    Reference implementation used by the tests to check that the
    parallel decomposition searches the same tree.
    """
    h0 = manhattan(board)
    threshold = h0
    visits = 0.0
    for it in range(1, max_iterations + 1):
        exceed, v, found = _bounded_dfs(board, 0, h0, threshold, -1)
        visits += v
        if found:
            return threshold, visits, it
        if exceed >= (1 << 30):
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    raise RuntimeError("max_iterations exceeded")


#: one iteration's search tree, as the annotated search returns it:
#: ``(visits, exceed, found, children)``, where ``children`` lists the
#: successors' skeletons only for a subtree above the split budget and is
#: ``None`` otherwise
_Skeleton = tuple[int, int, bool, Optional[list["_Skeleton"]]]


def _annotated_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                   prev_blank: int, depth_budget: int,
                   split_budget: int) -> _Skeleton:
    """Cost-bounded DFS that keeps per-child subtree sizes down to
    ``depth_budget`` plies (one pass; below the budget it degenerates to
    the plain counting DFS)."""
    return _skeleton(list(board), board.index(0), g, h, threshold,
                     prev_blank, depth_budget, split_budget)


def _skeleton(lst: list[int], blank: int, g: int, h: int, threshold: int,
              prev_blank: int, depth_budget: int,
              split_budget: int) -> _Skeleton:
    """:func:`_annotated_dfs` on one mutable board, like :func:`_count`."""
    if h == 0:
        return 1, threshold, True, None
    visits = 1
    exceed = 1 << 30
    found = False
    children: list[_Skeleton] = []
    g += 1
    for dest, delta in _SUCC[blank][prev_blank + 1]:
        tile = lst[dest]
        nh = h + delta[tile]
        nf = g + nh
        if nf > threshold:
            if nf < exceed:
                exceed = nf
            continue
        lst[blank], lst[dest] = tile, 0
        if depth_budget > 1:
            child = _skeleton(lst, dest, g, nh, threshold, blank,
                              depth_budget - 1, split_budget)
        else:
            sub_exceed, sub_visits, sub_found = _count(
                lst, dest, g, nh, threshold, blank)
            child = (sub_visits, sub_exceed, sub_found, None)
        lst[dest], lst[blank] = tile, 0
        children.append(child)
        visits += child[0]
        if child[1] < exceed:
            exceed = child[1]
        if child[2]:
            found = True
            break
    # a subtree at or below the split budget becomes one task, so its
    # successors are dropped: the skeleton keeps O(total_visits / budget)
    # nodes instead of O(total_visits)
    return visits, exceed, found, children if visits > split_budget else None


def _emit(node: _Skeleton, wave: int, tasks: list[TraceTask]) -> int:
    """Append the task (sub)tree of a skeleton node to ``tasks``; returns
    the id of its root task."""
    tid = len(tasks)
    tasks.append(None)  # type: ignore[arg-type]  # placeholder
    visits, _, _, children = node
    if not children:
        tasks[tid] = TraceTask(
            tid, work=float(visits), wave=wave, label="ida-search",
        )
    else:
        child_ids = _emit_children(children, wave, tasks)
        tasks[tid] = TraceTask(
            tid, work=float(1 + len(child_ids)), wave=wave,
            children=child_ids, label="ida-expand",
        )
    return tid


def _emit_children(children: list[_Skeleton], wave: int,
                   tasks: list[TraceTask]) -> tuple[int, ...]:
    """:func:`_emit` each child, then empty the list: a subtree's
    skeleton is freed once its tasks exist, so the two never peak
    together."""
    ids = tuple(_emit(c, wave, tasks) for c in children)
    children.clear()
    return ids


def _build(config: IDAStarConfig) -> WorkloadTrace:
    board = config.board()
    h0 = manhattan(board)
    threshold = h0
    budget = config.split_budget
    tasks: list[TraceTask] = []
    prev_driver: Optional[int] = None
    found = False

    for wave in range(config.max_iterations):
        root = _annotated_dfs(board, 0, h0, threshold, -1, SPLIT_DEPTH_LIMIT,
                              budget)
        _, exceed, found, root_children = root

        driver_id = len(tasks)
        tasks.append(None)  # type: ignore[arg-type]  # placeholder

        # the driver owns the iteration root's expansion; its children
        # are the root's successors (or, for a tiny iteration, a single
        # search task covering the whole tree)
        if root_children:
            search_ids = _emit_children(root_children, wave, tasks)
        else:
            search_ids = (_emit(root, wave, tasks),)
        tasks[driver_id] = TraceTask(
            driver_id,
            work=float(1 + len(search_ids)),
            wave=wave,
            children=search_ids,
            pinned=0,
            label=f"ida-driver-t{threshold}",
        )

        if prev_driver is not None:
            prev = tasks[prev_driver]
            tasks[prev_driver] = TraceTask(
                prev.id, prev.work, prev.wave,
                prev.children + (driver_id,), prev.pinned, prev.home,
                prev.data_bytes, prev.label,
            )
        prev_driver = driver_id
        if found:
            break
        if exceed >= (1 << 30):
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    else:
        raise RuntimeError("max_iterations exceeded while building IDA* trace")

    return WorkloadTrace(
        f"ida-{config.walk_steps}-{config.seed}",
        tasks,
        sec_per_unit=SEC_PER_VISIT,
        description=(
            f"IDA* 15-puzzle, walk={config.walk_steps} seed={config.seed}, "
            f"h0={h0}, solved at threshold {threshold}, "
            f"{len(tasks)} tasks in {tasks[-1].wave + 1 if tasks else 0} "
            f"iterations, split budget {budget} visits"
        ),
    )


def idastar_trace(config: IDAStarConfig | int, use_cache: bool = True) -> WorkloadTrace:
    """Workload trace for parallel IDA* (config number 1-3 or explicit)."""
    if isinstance(config, int):
        config = PAPER_CONFIGS[config]
    params = {
        "walk": config.walk_steps,
        "seed": config.seed,
        "budget": config.split_budget,
        "v": 2,
    }
    if not use_cache:
        return _build(config)
    return cached_trace("idastar", params, lambda: _build(config))
