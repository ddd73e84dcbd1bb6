"""Benchmark E6 — degenerate configurations: m=n reduces to Ben-Or, m=1 to shared memory."""

from repro.experiments import e6_degenerate
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(15)


def test_bench_e6_degenerate(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(e6_degenerate.plan(seeds=SEEDS, n=7), e6_degenerate.build_report),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    shared = report.row_where(configuration="shared-memory baseline")
    single_cluster = report.row_where(configuration="hybrid m=1 (single cluster)")
    assert shared["mean_messages"] == 0.0
    assert single_cluster["mean_rounds"] == 1.0
