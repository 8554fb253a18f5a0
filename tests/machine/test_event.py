"""Tests for the discrete-event engine."""

import pytest

from repro.machine.event import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(3.0, out.append, "c")
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    out = []
    for tag in "abcde":
        sim.schedule(1.0, out.append, tag)
    sim.run()
    assert out == list("abcde")


def test_priority_overrides_insertion_order():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "low", priority=1)
    sim.schedule(1.0, out.append, "high", priority=0)
    sim.run()
    assert out == ["high", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    out = []
    sim.schedule_at(2.5, out.append, 1)
    sim.run()
    assert out == [1] and sim.now == 2.5


def test_cancellation_prevents_firing():
    sim = Simulator()
    out = []
    h = sim.schedule(1.0, out.append, "x")
    sim.schedule(2.0, out.append, "y")
    h.cancel()
    assert h.cancelled
    sim.run()
    assert out == ["y"]


def test_events_scheduled_during_execution():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_max_events():
    sim = Simulator()
    out = []
    for i in range(5):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=2)
    assert out == [0, 1]
    sim.run()
    assert out == [0, 1, 2, 3, 4]


class _CounterLog:
    enabled = True

    def __init__(self):
        self.samples = []

    def counter(self, node, cat, name, t, value):
        self.samples.append((name, t, value))


@pytest.mark.parametrize("budget", [None, 1, 255, 256, 257, 1000])
def test_traced_run_samples_every_256_events_however_sliced(budget):
    sim = Simulator()
    log = _CounterLog()
    sim.attach_tracer(log)
    for i in range(600):
        sim.schedule(float(i + 1), lambda: None)
    while sim.pending():
        sim.run(max_events=budget)
    assert log.samples == [
        ("events_processed", 256.0, 256), ("pending_events", 256.0, 344),
        ("events_processed", 512.0, 512), ("pending_events", 512.0, 88),
        ("events_processed", 600.0, 600),
    ]


def test_pending_counts_live_events():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
    assert sim.pending() == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_run_not_reentrant():
    sim = Simulator()

    def evil():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, evil)
    sim.run()


def test_zero_delay_executes_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]
