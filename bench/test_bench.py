"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

The module fixture makes three smoke runs (about two minutes): all
workloads traced at seed 0, all workloads untraced at seed 0 again, and
``faults-churn16`` at seed 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import layers
import pytest
import run
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer units whose values repeat exactly for a fixed seed
EXACT_UNITS = ("count", "B", "task-hops", "fraction")


def _git_status() -> str | None:
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout
    return proc.stdout


def _smoke(tmp: Path, tag: str, *extra: str) -> tuple[dict, dict]:
    out = tmp / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out), *extra],
        capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    before = _git_status()
    runs = {
        "traced": _smoke(tmp, "traced", "--trace", "1"),
        "again": _smoke(tmp, "again"),
        "seed1": _smoke(tmp, "seed1", "--seed", "1", "--workload", "faults-churn16"),
    }
    runs["git"] = (before, _git_status())
    return runs


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)


def test_smoke_emits_every_declared_metric(smoke):
    doc, line = smoke["traced"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert set(doc["workloads"]) == set(workloads.NAMES)
    for name, wl in doc["workloads"].items():
        assert {k: v["unit"] for k, v in wl["metrics"].items()} == e2e, name
        assert {k: v["unit"] for k, v in wl["per_layer"].items()} == layer, name
        assert all(v["value"] > 0 for v in wl["metrics"].values()), name
        assert wl["failed"] == 0, wl["failures"]
    assert set(line["metrics"]) == {f"{w}/{m}" for w in workloads.NAMES for m in layer}


def test_same_seed_repeats_exactly(smoke):
    first, _ = smoke["traced"]
    second, _ = smoke["again"]
    exact = [name for name, unit in run.COUNTERS if unit in EXACT_UNITS]
    for name in workloads.NAMES:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["sim_digest"] == b["sim_digest"], name
        assert a["metrics"]["sim_mu_mean"] == b["metrics"]["sim_mu_mean"], name
        assert a["failed"] == b["failed"] == 0, name
        assert {k: a["counters"].get(k) for k in exact} \
            == {k: b["counters"].get(k) for k in exact}, name


def test_other_seed_changes_fault_plans(smoke):
    plans = [[req.faults.canonical() for req in workloads.build("faults-churn16", s).cells]
             for s in (0, 1)]
    assert plans[0] != plans[1]
    first, _ = smoke["traced"]
    other, _ = smoke["seed1"]
    assert first["workloads"]["faults-churn16"]["sim_digest"] \
        != other["workloads"]["faults-churn16"]["sim_digest"]


def _failing_on(plans):
    """A ``run_cell`` stand-in: cells whose plan is in ``plans`` (or every
    cell, for ``None``) never finish, the others pass every gate."""
    def run_cell(_wl, req, _scratch, _tally):
        if plans is None or req.faults in plans:
            raise worker.BudgetExceeded("not finished")
        return SimpleNamespace(extra={}), 0
    return run_cell


def test_screen_redraws_a_failing_cell_in_its_slot(monkeypatch, tmp_path):
    wl = workloads.build("faults-churn16", 0)
    monkeypatch.setattr(worker, "run_cell", _failing_on([wl.cells[1].faults]))
    screened, notes = worker.screen(wl, tmp_path)
    assert len(notes) == 1 and "BudgetExceeded" in notes[0]
    old, new = wl.cells[1], screened.cells[1]
    assert (new.workload, new.strategy, new.num_nodes, new.seed) \
        == (old.workload, old.strategy, old.num_nodes, old.seed)
    assert bool(new.faults.standby) == bool(old.faults.standby)  # same kind of plan
    assert new.faults != old.faults and new == wl.redraw(1, 0)
    assert screened.cells[:1] + screened.cells[2:] == wl.cells[:1] + wl.cells[2:]


def test_screen_stops_redrawing_after_the_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "run_cell", _failing_on(None))
    wl = workloads.build("faults-churn16", 0)
    _screened, notes = worker.screen(wl, tmp_path)
    assert len(notes) == worker.MAX_REDRAWS
    unscreened = workloads.build("rips-mesh64", 0)
    assert worker.screen(unscreened, tmp_path) == (unscreened, [])


def test_run_leaves_git_status_unchanged(smoke):
    before, after = smoke["git"]
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_every_module_maps_to_a_layer():
    src = ROOT / "src" / "repro"
    modules = [p.relative_to(src).as_posix() for p in src.rglob("*.py")]
    assert modules
    assert [m for m in modules if layers.layer_of_module(m) is None] == []


def test_rollup_splits_builtins_and_reports_unmapped(tmp_path):
    src = tmp_path / "src" / "repro"
    event = (str(src / "machine" / "event.py"), 1, "run")
    rips = (str(src / "core" / "rips.py"), 1, "phase")
    stray = (str(src / "newpkg" / "mod.py"), 1, "f")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        event: (1, 1, 2.0, 6.0, {}),
        rips: (4, 4, 1.0, 1.5, {event: (4, 4, 1.0, 1.5)}),
        stray: (1, 1, 0.5, 0.5, {event: (1, 1, 0.5, 0.5)}),
        push: (9, 9, 3.0, 3.0, {event: (6, 6, 2.0, 2.0), rips: (3, 3, 1.0, 1.0)}),
    }
    out = layers.rollup(stats, src=src, bench=tmp_path / "bench")
    split = out["layers"]
    assert split["machine.event"]["self_s"] == pytest.approx(4.0)
    assert split["core.rips"]["self_s"] == pytest.approx(2.0)
    assert split["core.rips"]["calls_in"] == 4
    assert out["unmapped"] == ["newpkg/mod.py"]
    assert sum(s["share"] for s in split.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("change, verdict", [
    ([12.0, 12.1, 11.9, 12.2, 12.0, 12.1, 11.8, 12.0, 12.1, 12.0], "improved"),
    ([8.0, 8.1, 7.9, 8.2, 8.0, 8.1, 7.8, 8.0, 8.1, 8.0], "worse"),
    ([10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0], "within bound"),
])
def test_judge_verdicts(change, verdict):
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert run.judge(parent, change, "higher", 0.10) == verdict


def test_judge_wide_spread_is_unresolved():
    parent = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    change = [7.0, 12.0, 8.5, 11.0, 9.0, 7.5, 12.0, 8.0, 10.0, 9.5]
    assert run.judge(parent, change, "higher", 0.10) == "unresolved"
