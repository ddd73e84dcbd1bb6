"""Benchmark E7 — indulgence: safety holds under termination-breaking crash patterns."""

from repro.experiments import e7_indulgence
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(8)


def test_bench_e7_indulgence(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(
            e7_indulgence.plan(seeds=SEEDS, n=8, m=4, round_cap=20), e7_indulgence.build_report
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    assert all(row["safety_rate"] == 1.0 for row in report.rows)
    assert all(row["termination_rate"] == 0.0 or not row["termination_expected"] for row in report.rows)
