"""The windowed drain and the vectorized lane kernel.

``Simulator.drain_window`` must execute exactly the events a plain
``run()`` would, in the same total order, just stopping at window
boundaries — cancellation, mid-drain scheduling, and priority ties
included.  The randomized equivalence tests drive both kernels with the
same seeded workload and compare execution logs event by event.
"""

import random

import numpy as np
import pytest

from repro.machine.event import EventLanes, SimulationError, Simulator


def _random_workload(sim, seed, log, events=400):
    """Seeded self-expanding workload with cancels and priority ties."""
    rng = random.Random(seed)
    handles = []

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        if len(log) < events:
            for _ in range(rng.randrange(3)):
                delay = rng.choice([0.0, 1e-6, 3e-6, 7e-6, 40e-6])
                prio = rng.choice([0, 0, 1])
                handles.append(
                    sim.schedule(delay, fire, rng.randrange(1000),
                                 priority=prio))
            if handles and rng.random() < 0.3:
                handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(20):
        sim.schedule(1e-6 * (i % 5), fire, i)
    return log


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_drain_window_equals_run(seed):
    ref_sim, ref_log = Simulator(), []
    _random_workload(ref_sim, seed, ref_log)
    ref_sim.run()

    win_sim, win_log = Simulator(), []
    _random_workload(win_sim, seed, win_log)
    delta = 40e-6
    k = 0
    while win_sim._peek_live() is not None:
        win_sim.drain_window((k + 1) * delta)
        k += 1
        assert k < 10_000
    assert win_log == ref_log
    assert win_sim.events_processed == ref_sim.events_processed


@pytest.mark.parametrize("seed", [3, 99])
def test_drain_window_tiny_windows_still_equal(seed):
    """Window width far below event spacing: many empty drains, same log."""
    ref_sim, ref_log = Simulator(), []
    _random_workload(ref_sim, seed, ref_log, events=150)
    ref_sim.run()

    win_sim, win_log = Simulator(), []
    _random_workload(win_sim, seed, win_log, events=150)
    delta = 0.5e-6
    while (ev := win_sim._peek_live()) is not None:
        k = max(0, int(ev.time / delta))
        win_sim.drain_window((k + 1) * delta)
    assert win_log == ref_log


def test_drain_window_does_not_advance_clock_past_last_event():
    sim = Simulator()
    sim.schedule(1e-6, lambda: None)
    sim.drain_window(1.0)
    # run(until=) would fast-forward to 1.0; the windowed drain must not,
    # or the merged shard clocks would disagree with a serial run
    assert sim.now == pytest.approx(1e-6)


def test_drain_window_batched_path_handles_cancellation():
    """Force the batched path (big heap) with cancels landing mid-batch."""
    sim = Simulator()
    log = []
    handles = [sim.schedule(1e-6 * (i % 50), log.append, i)
               for i in range(1000)]
    for h in handles[::3]:
        h.cancel()
    # stable sort by due time keeps scheduling (seq) order among ties
    expected = sorted(
        ((h.time, h.args[0]) for h in handles if not h.cancelled),
        key=lambda pair: pair[0])
    sim.drain_window(1.0)
    assert log == [tag for _k, tag in expected]
    assert sim.pending() == 0


def test_cancel_of_extracted_event_keeps_accounting_exact():
    """Cancelling a handle the batched drain already pulled out of the
    heap must not count it as a dead *queue* entry — an inflated _dead
    would make pending() under-report and trigger pointless compactions.
    """
    sim = Simulator()
    ran = []
    victims = []

    def cancel_victims():
        for h in victims:
            h.cancel()

    # runs first inside the batch (t=0, priority -1) and cancels later
    # members of the same extracted batch
    sim.schedule(0.0, cancel_victims, priority=-1)
    for i in range(300):  # wide enough to force the batched path
        h = sim.schedule(1e-6, ran.append, i)
        if i % 3 == 0:
            victims.append(h)
    sim.schedule(1.0, ran.append, "survivor")
    sim.drain_window(1e-3)
    assert len(ran) == 300 - len(victims)
    assert sim._dead == 0
    assert sim.pending() == 1  # exactly the far-future survivor


def test_event_lanes_dispatch_waves():
    lanes = EventLanes()
    hits = []

    def tick(times, idx):
        hits.append(sorted(times[idx].tolist()))
        times[idx] += 10e-6

    lane = lanes.add_lane([1e-6, 2e-6, 50e-6], tick)
    executed = lanes.drain_window(9e-6)
    # wave 1 fires the two due entries; after +10us nothing is due
    assert executed == 2
    assert hits == [[1e-6, 2e-6]]
    assert lanes.next_time() == pytest.approx(11e-6)
    # retire everything: dispatch must set inf to stop the lane
    def absorb(times, idx):
        times[idx] = np.inf

    lanes2 = EventLanes()
    lanes2.add_lane([1e-6, 2e-6], absorb)
    assert lanes2.drain_window(1.0) == 2
    assert lanes2.next_time() == np.inf
    assert lane == 0


def test_event_lanes_push_and_compaction():
    lanes = EventLanes()

    def absorb(times, idx):
        times[idx] = np.inf

    lane = lanes.add_lane([], absorb)
    for _ in range(3):
        lanes.push(lane, np.full(600, 1e-6))
        lanes.drain_window(1.0)
    # retired (inf) slots must not grow without bound
    assert lanes.times(lane).size < 1800
    assert lanes.next_time() == np.inf


def test_event_lanes_guards_non_advancing_dispatch():
    lanes = EventLanes()
    lanes.add_lane([1e-6], lambda times, idx: None)  # never advances
    with pytest.raises(SimulationError):
        lanes.drain_window(1.0)
