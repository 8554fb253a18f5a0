"""Tracing end-to-end: non-perturbation, reconciliation, runner plumbing."""

import dataclasses

import pytest

from repro.session import Session
from repro.experiments.common import strategy_factories, workload
from repro.obs import Tracer
from repro.obs.attribution import node_breakdown, phase_totals, reconcile
from repro.runner import ResultCache, RunRequest, run_requests_report


def _spans(tr: Tracer, cat: str) -> list[tuple]:
    """The completed spans of ``cat`` as ``(node, name, start, dur)``."""
    return [(node, name, t, dur) for ph, node, rcat, name, t, dur, _args
            in tr.records if ph == "X" and rcat == cat]


def _run(strategy_name: str, tracer=None, num_nodes: int = 8, seed: int = 7):
    spec = workload("queens-10", scale="small")
    strat = strategy_factories(spec.kind, num_nodes)[strategy_name]()
    return Session(spec.build(num_nodes), strategy=strat, num_nodes=num_nodes, seed=seed,
                   trace=tracer).run()


@pytest.mark.parametrize("strategy", ["RIPS", "random", "RID"])
def test_traced_run_metrics_identical_to_untraced(strategy):
    base = _run(strategy)
    tr = Tracer()
    traced = _run(strategy, tracer=tr)
    assert len(tr) > 0
    assert dataclasses.asdict(traced) == dataclasses.asdict(base)


class TestRIPSTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        tr = Tracer()
        metrics = _run("RIPS", tracer=tr)
        return tr, metrics

    def test_no_dangling_spans(self, traced):
        tr, _m = traced
        assert tr.open_spans() == 0
        assert tr.dropped == 0

    def test_phase_substeps_present(self, traced):
        tr, _m = traced
        names = {name for _node, name, _t, _dur in _spans(tr, "phase")}
        assert {"init", "gather", "plan", "transfer"} <= names
        # resume is an instant, one per node per completed phase
        resumes = [t for ph, _node, cat, name, t, *_ in tr.records
                   if (ph, cat, name) == ("i", "phase", "resume")]
        assert resumes

    def test_task_spans_match_task_count(self, traced):
        tr, m = traced
        spans = _spans(tr, "task")
        assert len(spans) == m.num_tasks
        assert len({name for _node, name, _t, _dur in spans}) == m.num_tasks

    def test_plan_spans_at_root_only(self, traced):
        tr, m = traced
        plans = [node for node, name, _t, _dur in _spans(tr, "phase")
                 if name == "plan"]
        assert plans and all(node == 0 for node in plans)
        assert len(plans) == m.system_phases

    def test_breakdown_reconciles_with_run_metrics(self, traced):
        tr, m = traced
        rec = reconcile(tr, m)
        assert rec["ok"] and rec["delta_s"] == 0.0
        assert rec["delta_task"] < 1e-9
        assert rec["delta_overhead"] < 1e-9
        assert rec["delta_idle"] < 1e-9
        # per node: T ~= task + overhead + idle by construction
        for row in node_breakdown(tr, m):
            assert row["task"] + row["overhead"] + row["idle"] == pytest.approx(m.T)

    def test_phase_totals_aggregates(self, traced):
        tr, _m = traced
        totals = phase_totals(tr)
        assert totals["gather"]["count"] > 0
        assert totals["gather"]["total"] >= totals["gather"]["mean"]


class TestRunnerTracing:
    def _requests(self, trace: bool):
        return [
            RunRequest(workload="queens-10", strategy=s, num_nodes=8,
                       seed=7, scale="small", trace=trace)
            for s in ("RIPS", "random")
        ]

    def test_canonical_omits_defaults(self):
        plain = RunRequest(workload="queens-10", strategy="RIPS")
        c = plain.canonical()
        assert "kind" not in c and "params" not in c and "trace" not in c
        traced = RunRequest(workload="queens-10", strategy="RIPS", trace=True)
        assert traced.canonical()["trace"] is True
        assert traced.content_hash() != plain.content_hash()

    def test_parallel_serial_traced_runs_identical(self):
        reqs = self._requests(trace=True)
        serial = run_requests_report(reqs, jobs=1).results
        parallel = run_requests_report(reqs, jobs=2).results
        for s, p in zip(serial, parallel):
            assert dataclasses.asdict(s) == dataclasses.asdict(p)
            assert s.extra["trace_records"]  # spans survived the pool

    def test_traced_requests_bypass_result_cache(self, tmp_path):
        store = ResultCache(root=tmp_path)
        reqs = self._requests(trace=True)
        first = run_requests_report(reqs, jobs=1, cache=store)
        assert first.cache_hits == 0 and first.executed == len(reqs)
        second = run_requests_report(reqs, jobs=1, cache=store)
        assert second.cache_hits == 0 and second.executed == len(reqs)
        # the same cells untraced do use the cache
        plain = self._requests(trace=False)
        run_requests_report(plain, jobs=1, cache=store)
        again = run_requests_report(plain, jobs=1, cache=store)
        assert again.cache_hits == len(plain)
