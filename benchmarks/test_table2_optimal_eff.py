"""Benchmark: Table II — optimal efficiencies for the test problems."""

from __future__ import annotations

from repro.experiments import table2
from repro.runner import run_requests

from benchmarks.conftest import save_and_print


def test_table2_optimal_efficiencies(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: run_requests(table2.build_requests(num_nodes=32)),
        rounds=1, iterations=1,
    )
    save_and_print(results_dir, "table2", table2.render(results))
    values = {m.workload: m.efficiency for m in results}
    assert len(values) == 9
    for key, v in values.items():
        assert 0.0 < v <= 1.0, key
    # the paper's shape: GROMOS is nearly perfectly parallel; IDA* is
    # capped well below the search workloads by iteration barriers
    gromos = [v for k, v in values.items() if k.startswith("gromos")]
    ida = [v for k, v in values.items() if k.startswith("ida")]
    assert min(gromos) > 0.9
    assert min(ida) < min(gromos)
