"""The sharded execution engines.

Two entry points:

* :func:`drive_sharded` — drive one existing
  :class:`~repro.machine.machine.Machine` (a full strategy run: driver,
  workers, faults, tracer, everything) window by window.  The machine's
  event queue is drained with
  :meth:`~repro.machine.event.Simulator.drain_window`, which executes
  the byte-identical event sequence of a plain ``run()``; a
  :class:`~repro.shard.router.ShardRouter` on the network hook batches
  cross-shard traffic per window and checks the conservative invariant.
  This is what ``Session(shards=N)`` uses — results are bit-identical to
  serial for every strategy and fault plan because windows only insert
  observation points into the one global event order.

* :func:`run_program` — run a :class:`~repro.shard.worker.ShardProgram`
  across shard workers, each with its own simulator and
  :class:`~repro.machine.event.EventLanes` batch kernel, exchanging
  batched traffic at window barriers.  ``mode="inline"`` runs all
  workers in one process (the benchmark configuration: on one visible
  core all the speedup comes from batch dispatch, none from processes);
  ``mode="process"`` forks one OS process per shard with queue-backed
  channels and lockstep null-message barriers, for multi-core hosts.
  Both modes make stop/skip decisions from globally-exchanged data only,
  so they produce identical results (asserted in tests).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .channel import LoopbackChannels, ProcessChannels
from .partition import (
    Partition,
    ShardConfigError,
    conservative_window,
    make_partition,
)
from .router import ConservativeWindowViolation, ShardRouter
from .window import window_end, window_index
from .worker import ShardProgram, ShardWorker

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

__all__ = ["drive_sharded", "run_program"]


def _inner_network(network):
    """Unwrap fault-injection decorators down to the transport that owns
    the ``shard_router`` hook."""
    while not hasattr(network, "shard_router"):
        inner = getattr(network, "inner", None)
        if inner is None:
            raise ShardConfigError(
                f"network {type(network).__name__} has no shard_router hook"
            )
        network = inner
    return network


# ----------------------------------------------------------------------
# strategy runs: window-step one Machine
# ----------------------------------------------------------------------
def drive_sharded(machine: "Machine", shards: int, strict: bool = True) -> dict:
    """Run ``machine`` to completion in conservative windows.

    Returns the JSON-able shard summary that
    :meth:`repro.session.Session.run` stores under
    ``metrics.extra["shard"]``.  The router is attached only for the
    duration of this call (never pickled into snapshots) and the drain
    order equals serial order, so everything observable — metrics,
    tracer records, audits — matches an unsharded run exactly.
    """
    partition = make_partition(machine.num_nodes, shards)
    delta = conservative_window(machine.topology, machine.latency, partition)
    net = _inner_network(machine.network)
    if net.shard_router is not None:
        raise ShardConfigError("machine is already being driven sharded")
    router = ShardRouter(partition, delta, strict=strict)
    owners = partition.owners()
    for node in machine.nodes:
        node.shard = owners[node.rank]
    sim = machine.sim
    windows = 0
    net.shard_router = router
    try:
        while True:
            ev = sim._peek_live()
            if ev is None:
                break
            # jump straight to the window containing the next event —
            # empty windows carry no traffic and need no barrier
            k = window_index(ev.time, delta)
            end = window_end(k, delta)
            if end < ev.time:
                # the head sits an ulp past the boundary and the index's
                # rounding grace pulled it into window k; drain the next
                # window instead so every iteration makes progress
                k += 1
                end = window_end(k, delta)
            sim.drain_window(end)
            router.flush_through(k)
            windows += 1
    finally:
        net.shard_router = None
    router.flush_all()
    per_shard_cpu = []
    per_shard_ranks = []
    for s in range(partition.shards):
        ranks = partition.ranks(s)
        per_shard_ranks.append(len(ranks))
        per_shard_cpu.append(
            sum(sum(machine.nodes[r].cpu_time.values()) for r in ranks)
        )
    info = {
        "shards": shards,
        "window_seconds": delta,
        "windows": windows,
        "partition": [list(b) for b in partition.blocks],
        "per_shard": {"ranks": per_shard_ranks, "cpu_seconds": per_shard_cpu},
    }
    info.update(router.summary())
    return info


# ----------------------------------------------------------------------
# shard programs: per-worker simulators + lanes, barrier exchange
# ----------------------------------------------------------------------
def _check_outbound(out: dict, k: int, delta: float) -> float:
    """Validate window-``k`` emissions; returns their earliest arrival.

    Mirrors :func:`repro.shard.window.is_conservative`, ulp-grace
    included — and inherits its ordering caveat: an arrival that rounds
    onto a window boundary is delivered into the *next* window and so
    runs after equal-timestamp events local to the destination.  Fine
    for order-free lanes; see ``is_conservative`` for the nudge an
    order-exact Simulator program must apply.
    """
    earliest = math.inf
    for dst, arrays in out.items():
        for arr in arrays:
            lo = float(arr.min())
            if lo + delta * 1e-9 <= window_end(k, delta):
                raise ConservativeWindowViolation(
                    f"batch for shard {dst} emitted in window {k} has an "
                    f"arrival at {lo!r}, not strictly after the window "
                    f"boundary {window_end(k, delta)!r}"
                )
            if lo < earliest:
                earliest = lo
    return earliest


def _deliver(program: ShardProgram, worker: ShardWorker,
             inbox: dict[int, list[np.ndarray]]) -> None:
    for src in sorted(inbox):
        for arr in inbox[src]:
            program.receive(worker, src, arr)


def run_program(
    program: ShardProgram,
    *,
    num_nodes: int,
    shards: int,
    delta: float,
    budget_events: Optional[int] = None,
    max_windows: Optional[int] = None,
    mode: str = "inline",
) -> list[dict]:
    """Run ``program`` on ``shards`` workers; returns per-shard results.

    The loop is identical in both modes: deliver peer batches, drain the
    window, exchange ``(executed, next_due, min_outbound_arrival,
    batches)`` at the barrier, then jointly decide to stop (budget
    reached, window cap, or globally idle) or jump to the next non-empty
    window.  Every decision uses only globally-exchanged values, so any
    worker reaches the same conclusion — and the inline and process
    engines produce identical results.
    """
    if shards < 1:
        raise ShardConfigError(f"shards must be >= 1, got {shards}")
    if delta <= 0:
        raise ShardConfigError("delta must be positive")
    partition = make_partition(num_nodes, shards)
    if mode == "inline":
        return _run_inline(program, partition, delta, budget_events, max_windows)
    if mode == "process":
        return _run_process(program, partition, delta, budget_events, max_windows)
    raise ShardConfigError(f"unknown engine mode {mode!r}")


def _run_inline(program, partition, delta, budget_events, max_windows):
    shards = partition.shards
    workers = [ShardWorker(s, partition, delta) for s in range(shards)]
    for w in workers:
        program.setup(w)
    channels = LoopbackChannels(shards)
    pending = [{} for _ in range(shards)]  # dst -> {src: [arrays]}
    k = 0
    done_windows = 0
    while True:
        for w in workers:
            inbox, pending[w.shard] = pending[w.shard], {}
            _deliver(program, w, inbox)
        nxt = min(w.next_time() for w in workers)
        if nxt == math.inf:
            break
        k = max(k, window_index(nxt, delta))
        outs = [w.run_window(k) for w in workers]
        done_windows += 1
        for w, out in zip(workers, outs):
            _check_outbound(out, k, delta)
            for dst, arrays in out.items():
                channels.post(w.shard, dst, k, arrays)
                pending[dst].setdefault(w.shard, []).extend(arrays)
            # null messages keep the channel protocol honest even inline
            for dst in range(shards):
                if dst != w.shard and dst not in out:
                    channels.post(w.shard, dst, k, [])
        for w in workers:
            channels.collect(w.shard, k)
        total = sum(w.executed for w in workers)
        if budget_events is not None and total >= budget_events:
            break
        if max_windows is not None and done_windows >= max_windows:
            break
        k += 1
    return [program.finish(w) for w in workers]


def _worker_main(program, shard, partition, delta, budget_events,
                 max_windows, queues, result_q):
    try:
        worker = ShardWorker(shard, partition, delta)
        program.setup(worker)
        channels = ProcessChannels(shard, queues)
        pending: dict[int, list[np.ndarray]] = {}
        k = 0
        done_windows = 0
        while True:
            inbox, pending = pending, {}
            _deliver(program, worker, inbox)
            local_next = worker.next_time()
            # barrier A: agree on the next non-empty window (or idle stop).
            # Barrier keys must be *monotonically increasing* across the
            # whole run (2k for A, 2k+1 for B): a fast peer can post its
            # barrier-B payload while this worker is still collecting
            # barrier A, and ProcessChannels tells "from the future, stash"
            # apart from "stale, protocol bug" purely by key order.
            channels.post_all(2 * k, {d: ("next", local_next)
                                      for d in range(partition.shards)})
            peer_next = [p[1] for p in channels.collect(2 * k).values()]
            nxt = min([local_next, *peer_next])
            if nxt == math.inf:
                break
            k = max(k, window_index(nxt, delta))
            out = worker.run_window(k)
            done_windows += 1
            _check_outbound(out, k, delta)
            # barrier B: exchange batches + executed counts (nulls incl.)
            payloads = {d: ("batch", worker.executed, out.get(d, []))
                        for d in range(partition.shards)}
            channels.post_all(2 * k + 1, payloads)
            got = channels.collect(2 * k + 1)
            total = worker.executed
            for src in sorted(got):
                _tag, peer_exec, arrays = got[src]
                total += peer_exec
                if arrays:
                    pending.setdefault(src, []).extend(arrays)
            if budget_events is not None and total >= budget_events:
                break
            if max_windows is not None and done_windows >= max_windows:
                break
            k += 1
        result_q.put((shard, program.finish(worker)))
    except BaseException as exc:  # pragma: no cover - surfaced in parent
        result_q.put((shard, {"error": repr(exc)}))
        raise


def _run_process(program, partition, delta, budget_events, max_windows):
    import multiprocessing as mp

    ctx = mp.get_context()
    shards = partition.shards
    queues = [ctx.SimpleQueue() for _ in range(shards)]
    result_q = ctx.SimpleQueue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(program, s, partition, delta, budget_events, max_windows,
                  queues, result_q),
            daemon=True,
        )
        for s in range(shards)
    ]
    for p in procs:
        p.start()
    results: list[Optional[dict]] = [None] * shards
    failure = None
    try:
        for _ in range(shards):
            shard, res = result_q.get()
            results[shard] = res
            if isinstance(res, dict) and "error" in res:
                # peers may be blocked at a barrier waiting for the dead
                # worker; stop collecting and tear everything down
                failure = (shard, res["error"])
                break
    finally:
        for p in procs:
            if failure is not None and p.is_alive():
                p.terminate()
            p.join(timeout=30)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
                p.join(timeout=5)
    if failure is not None:
        raise RuntimeError(f"shard worker {failure[0]} failed: {failure[1]}")
    return results
