"""Benchmark E3 — "one for all and all for one": lone survivors represent their clusters."""

from repro.experiments import e3_one_for_all
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(5)


def test_bench_e3_one_for_all(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(e3_one_for_all.plan(seeds=SEEDS, n=9, m=3), e3_one_for_all.build_report),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    lone = [row for row in report.rows if row["scenario"] == "one-survivor-per-cluster"]
    assert all(row["termination_rate"] == 1.0 for row in lone)
    # Six of nine processes are crashed in the survivor scenario.
    assert all(row["crashed"] == 6 for row in lone)
