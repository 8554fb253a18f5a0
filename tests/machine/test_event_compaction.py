"""Cancellation under dead-event compaction.

The event queue lazily cancels (O(1)) and compacts dead entries once they
dominate, so these tests pin down the interactions that used to be
untestable with the O(n) queue: memory boundedness under mass
cancellation, cancellation racing the run loop, and the live count
staying consistent across budgeted runs.
"""

from __future__ import annotations

from repro.machine.event import Simulator


def test_mass_cancel_keeps_queue_bounded():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10_000)]
    for h in handles:
        h.cancel()
    assert sim.pending() == 0
    # compaction bounds the physical queue at ~2x the live count plus the
    # trigger floor; with zero live events that's a small constant
    assert len(sim._queue) <= 128
    sim.run()
    assert sim.events_processed == 0
    assert sim.now == 0.0


def test_cancel_then_run_fires_only_survivors():
    sim = Simulator()
    out = []
    handles = [sim.schedule(float(i + 1), out.append, i) for i in range(200)]
    for i, h in enumerate(handles):
        if i % 2 == 0:
            h.cancel()
    sim.run()
    assert out == [i for i in range(200) if i % 2 == 1]
    assert sim.now == 200.0


def test_cancel_during_handler_prevents_later_event():
    sim = Simulator()
    out = []
    victim = sim.schedule(2.0, out.append, "victim")

    def assassin():
        out.append("assassin")
        victim.cancel()

    sim.schedule(1.0, assassin)
    sim.schedule(3.0, out.append, "after")
    sim.run()
    assert out == ["assassin", "after"]
    assert victim.cancelled


def test_cancel_self_during_own_handler_is_noop():
    sim = Simulator()
    fired = []
    box = {}

    def fn():
        fired.append(True)
        box["h"].cancel()  # already executing: must not corrupt accounting

    box["h"] = sim.schedule(1.0, fn)
    sim.schedule(2.0, fired.append, True)
    sim.run()
    assert len(fired) == 2
    assert sim.pending() == 0


def test_mass_cancel_from_inside_handler_during_run():
    """Compaction triggered mid-run must not detach the loop's queue."""
    sim = Simulator()
    out = []
    later = [sim.schedule(float(i + 2), out.append, i) for i in range(500)]

    def first():
        out.append("first")
        for h in later:
            h.cancel()

    sim.schedule(1.0, first)
    survivor = sim.schedule(600.0, out.append, "survivor")
    sim.run()
    assert out == ["first", "survivor"]
    assert not survivor.cancelled
    assert sim.pending() == 0


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    out = []
    h = sim.schedule(1.0, out.append, "x")
    sim.run()
    h.cancel()  # idempotent even after execution
    assert out == ["x"]
    assert h.cancelled
    assert sim.pending() == 0
    # a fresh event must still work after the stale cancel
    sim.schedule(1.0, out.append, "y")
    sim.run()
    assert out == ["x", "y"]


def test_pending_is_consistent_through_compaction_and_run():
    sim = Simulator()
    keep = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    drop = [sim.schedule(float(i + 100), lambda: None) for i in range(300)]
    for h in drop:
        h.cancel()
    assert sim.pending() == 50
    sim.run(max_events=10)
    assert sim.pending() == 40
    sim.run()
    assert sim.pending() == 0
    assert all(not h.cancelled for h in keep)
