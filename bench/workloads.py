"""The benchmark's workloads: fixed lists of real scheduled-run cells.

A cell is one :class:`repro.runner.RunRequest` -- workload x strategy x
mesh (x fault plan) -- the paper's unit of work.  Each workload is built
so that the layers an optimisation is likely to touch do most of their
work in one workload and almost none in another; ``why`` records which.

``seed`` sets every cell's machine seed (``1234 + seed``) and the
fault-plan draws, and nothing else.  A faulted cell whose plan the
program cannot complete is replaced by a fresh draw for the same slot
(``Workload.redraw``; see ``worker.screen``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.chaos import random_churn_plan, random_plan
from repro.runner import RunRequest

__all__ = ["MACHINE_SEED", "NAMES", "TABLE1", "Workload", "build"]

MACHINE_SEED = 1234

#: the nine small-scale Table-I workloads
TABLE1 = (
    "queens-10", "queens-11", "queens-12",
    "ida-1", "ida-2", "ida-3",
    "gromos-8", "gromos-12", "gromos-16",
)

#: events between checkpoints in ``traced-ckpt32`` (like
#: ``run --checkpoint-every 5000``)
CHECKPOINT_EVERY = 5_000

#: fault plans per ``faults-churn16`` pass, alternating the crash/partition
#: and the elastic-membership chaos distributions
FAULT_PLANS = 24


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a name, the reason it exists, its cells."""

    name: str
    why: str
    cells: tuple[RunRequest, ...]
    #: >0: run each cell in slices of this many events, checkpoint to a
    #: file after each slice and resume from the file after every second
    #: one; also attribute and export the cell's trace afterwards
    checkpoint_every: int = 0
    #: ``redraw(i, k)``: the ``k``-th replacement for cell ``i`` -- same
    #: workload, strategy and kind of fault plan, a fresh plan draw --
    #: for a cell whose drawn plan the program cannot complete
    redraw: Optional[Callable[[int, int], RunRequest]] = None

    def prefixes(self) -> list[RunRequest]:
        """One cell per distinct (workload, nodes) prefix, in cell order:
        what set-up prepares cold."""
        seen: dict[tuple[str, int], RunRequest] = {}
        for req in self.cells:
            seen.setdefault((req.workload, req.num_nodes), req)
        return list(seen.values())


def _rips_mesh64(seed: int) -> Workload:
    return Workload(
        "rips-mesh64",
        "RIPS on the 9 Table-I workloads at 64 nodes: system phases "
        "(collectives, RIPS, MWA) do real work; Table III's IDA* saturation lives here",
        tuple(RunRequest(w, "RIPS", num_nodes=64, seed=MACHINE_SEED + seed)
              for w in TABLE1),
    )


def _baselines_mesh32(seed: int) -> Workload:
    return Workload(
        "baselines-mesh32",
        "random/gradient/RID on the 9 Table-I workloads at 32 nodes: "
        "point-to-point message storms, and the bypass for any RIPS/MWA/collectives change",
        tuple(RunRequest(w, s, num_nodes=32, seed=MACHINE_SEED + seed)
              for s in ("random", "gradient", "RID") for w in TABLE1),
    )


def _fault_cell(i: int, seed: int, rng: random.Random) -> RunRequest:
    """Cell ``i`` of ``faults-churn16``, its plan drawn from ``rng``."""
    combos = [(s, w) for w in ("queens-10", "queens-11", "queens-12", "ida-2")
              for s in ("RIPS", "RID")]
    draw = random_plan if i % 2 == 0 else random_churn_plan
    strategy, work = combos[(i // 2) % len(combos)]
    return RunRequest(work, strategy, num_nodes=16,
                      seed=MACHINE_SEED + seed, faults=draw(rng, 16))


def _faults_churn16(seed: int) -> Workload:
    rng = random.Random(seed)
    return Workload(
        "faults-churn16",
        "RIPS and RID under seeded crash/partition and join/leave/election "
        "plans at 16 nodes: the only workload that enters faults/ and membership/",
        tuple(_fault_cell(i, seed, rng) for i in range(FAULT_PLANS)),
        # a string seeds Random the same way under any PYTHONHASHSEED
        redraw=lambda i, k: _fault_cell(i, seed, random.Random(f"{seed}/{i}/{k}")),
    )


def _traced_ckpt32(seed: int) -> Workload:
    # No IDA* cell: under RIPS its size swings with the machine seed by up
    # to a third, and the largest traced cell sets the peak memory.
    return Workload(
        "traced-ckpt32",
        "traced RIPS and RID at 32 nodes, checkpointed and resumed from file, "
        "then attributed and exported: the only workload that runs obs/ and snapshot",
        tuple(RunRequest(w, s, num_nodes=32, seed=MACHINE_SEED + seed, trace=True)
              for s in ("RIPS", "RID") for w in ("queens-12", "gromos-12", "gromos-16")),
        checkpoint_every=CHECKPOINT_EVERY,
    )


_BUILDERS = {
    "rips-mesh64": _rips_mesh64,
    "baselines-mesh32": _baselines_mesh32,
    "faults-churn16": _faults_churn16,
    "traced-ckpt32": _traced_ckpt32,
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The cells of workload ``name`` for ``seed``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}") from None
    return builder(seed)
