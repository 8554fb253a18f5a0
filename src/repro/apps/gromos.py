"""Synthetic GROMOS nonbonded workload — the paper's third application.

"GROMOS has a more predictable structure.  The number of processes is
known with the given input data, but the computation density in each
process varies.  Thus, a load balancing mechanism is necessary."

One task per charge group computes the nonbonded interactions of that
group: its work is the number of atom pairs within the cutoff radius
(computed for real with a cell list over the synthetic SOD molecule).
Tasks are **pre-placed block-wise by group index** — the SPMD geometric
decomposition a data-parallel GROMOS uses — so the initial placement is
count-balanced but *work*-imbalanced, exactly the situation where
incremental rescheduling of leftover tasks pays off.

``timesteps > 1`` produces a multi-wave trace where positions drift a
little between steps (each step's group task is the cross-wave child of
the same group's task in the previous step, so it starts on whatever
node last executed it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace
from .molecule import Molecule, synthetic_sod

__all__ = ["GromosConfig", "gromos_trace", "pair_counts"]

#: seconds of simulated CPU per atom pair inside the cutoff.  Calibrated
#: so that the 8 A workload's sequential time lands near the paper's
#: (~57 s => ~11 ms per charge-group task on average).
SEC_PER_PAIR = 170e-6

#: most (group, atom) pairs one distance block of ``pair_counts`` holds
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class GromosConfig:
    """One GROMOS workload: cutoff radius + machine pre-placement."""

    cutoff: float = 8.0  # Angstroms
    num_nodes: int = 32  # for the block pre-placement
    timesteps: int = 1
    n_atoms: int = 6968
    n_groups: int = 4986
    seed: int = 2026

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")


def pair_counts(mol: Molecule, cutoff: float, periodic: bool = True) -> np.ndarray:
    """Atoms within ``cutoff`` of each charge-group centroid.

    This is the per-group nonbonded work measure: a group's interaction
    list length.  Computed with a uniform cell list (cell edge >=
    cutoff) — the same data structure an MD code uses.  With
    ``periodic`` (the default, as in a real solvated MD box) distances
    use the minimum-image convention, so there is no artificial density
    falloff at the box faces.

    The distances are taken one cell block at a time: every charge group
    centred in one cell against every atom of that cell's neighbour
    cells, in chunks of at most ``_BLOCK_PAIRS`` pairs so that a dense
    cell at a large cutoff does not allocate one huge temporary.
    """
    centers = mol.group_centers()
    pos = mol.positions
    box = mol.box
    ncell = max(1, int(box / cutoff))
    if periodic and ncell < 3:
        ncell = 1  # degenerate box: brute force over everything
    cell_edge = box / ncell
    atom_cells = np.floor(pos / cell_edge).astype(np.int64).clip(0, ncell - 1)
    atom_key = (atom_cells[:, 0] * ncell + atom_cells[:, 1]) * ncell + atom_cells[:, 2]
    order = np.argsort(atom_key, kind="stable")
    sorted_keys = atom_key[order]
    sorted_pos = pos[order]
    # bucket boundaries per cell key
    starts = np.searchsorted(sorted_keys, np.arange(ncell ** 3))
    ends = np.searchsorted(sorted_keys, np.arange(ncell ** 3), side="right")

    counts = np.zeros(centers.shape[0], dtype=np.int64)
    c2 = cutoff * cutoff
    ccell = np.floor(centers / cell_edge).astype(np.int64).clip(0, ncell - 1)

    def cell_range(c: int) -> list[int]:
        if periodic:
            # wrapped, de-duplicated (ncell < 3 would otherwise visit a
            # cell more than once and double-count)
            return sorted({(c + d) % ncell for d in (-1, 0, 1)})
        return list(range(max(c - 1, 0), min(c + 2, ncell)))

    gkey = (ccell[:, 0] * ncell + ccell[:, 1]) * ncell + ccell[:, 2]
    gorder = np.argsort(gkey, kind="stable")
    first = np.unique(gkey[gorder], return_index=True)[1]
    last = np.append(first[1:], gorder.size)
    # one block per occupied centre cell; gorder[lo:hi] are its groups
    for lo, hi in zip(first.tolist(), last.tolist()):
        cx, cy, cz = ccell[gorder[lo]]
        keys = [(x * ncell + y) * ncell + z
                for x in cell_range(cx)
                for y in cell_range(cy)
                for z in cell_range(cz)]
        near = np.concatenate([sorted_pos[starts[k]:ends[k]] for k in keys])
        step = max(1, _BLOCK_PAIRS // max(len(near), 1))
        for s in range(lo, hi, step):
            groups = gorder[s:min(s + step, hi)]
            # bitwise the per-pair arithmetic of d -= box * np.round(d /
            # box) and (d * d).sum(axis=1) <= c2, so no count can move
            d = near[None, :, :] - centers[groups][:, None, :]
            if periodic:
                t = d / box
                np.round(t, out=t)
                t *= box
                d -= t
            np.multiply(d, d, out=d)
            counts[groups] = np.count_nonzero(d.sum(axis=2) <= c2, axis=1)
    return counts


def _build(config: GromosConfig) -> WorkloadTrace:
    mol = synthetic_sod(config.n_atoms, config.n_groups, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    n_groups = config.n_groups
    n_nodes = config.num_nodes
    tasks: list[TraceTask] = []
    prev_wave_ids: list[int] = []
    for step in range(config.timesteps):
        if step > 0:
            mol = mol.perturb(sigma=0.15, rng=rng)
        counts = pair_counts(mol, config.cutoff)
        ids = list(range(len(tasks), len(tasks) + n_groups))
        for g in range(n_groups):
            home = g * n_nodes // n_groups if step == 0 else None
            tasks.append(
                TraceTask(
                    ids[g],
                    work=float(max(counts[g], 1)),
                    wave=step,
                    home=home,
                    data_bytes=2048,  # group coords + pair-list segment
                    label=f"group-{g}-step{step}",
                )
            )
        if prev_wave_ids:
            # chain each group to its previous-step task (location inherit)
            for g in range(n_groups):
                prev = tasks[prev_wave_ids[g]]
                tasks[prev_wave_ids[g]] = TraceTask(
                    prev.id, prev.work, prev.wave,
                    prev.children + (ids[g],), prev.pinned, prev.home,
                    prev.data_bytes, prev.label,
                )
        prev_wave_ids = ids

    return WorkloadTrace(
        f"gromos-{config.cutoff:g}A",
        tasks,
        sec_per_unit=SEC_PER_PAIR,
        description=(
            f"synthetic SOD ({config.n_atoms} atoms, {n_groups} charge "
            f"groups), cutoff {config.cutoff:g} A, "
            f"{config.timesteps} timestep(s), block pre-placement on "
            f"{n_nodes} nodes"
        ),
    )


def gromos_trace(
    cutoff: float = 8.0,
    num_nodes: int = 32,
    timesteps: int = 1,
    use_cache: bool = True,
    **kwargs,
) -> WorkloadTrace:
    """Workload trace for the synthetic GROMOS run (disk-cached)."""
    config = GromosConfig(cutoff=cutoff, num_nodes=num_nodes,
                          timesteps=timesteps, **kwargs)
    params = {
        "cutoff": config.cutoff,
        "nodes": config.num_nodes,
        "steps": config.timesteps,
        "atoms": config.n_atoms,
        "groups": config.n_groups,
        "seed": config.seed,
        "v": 1,
    }
    if not use_cache:
        return _build(config)
    return cached_trace("gromos", params, lambda: _build(config))
