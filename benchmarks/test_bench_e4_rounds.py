"""Benchmark E4 — expected rounds to decision for Algorithms 2 and 3."""

from repro.experiments import e4_rounds
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(20)


def test_bench_e4_rounds(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(
            e4_rounds.plan(seeds=SEEDS, sizes=(6, 12), cluster_counts=(3,)), e4_rounds.build_report
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    # Algorithm 2 on unanimous inputs: always exactly one round.
    for row in report.rows:
        if row["algorithm"] == "hybrid-local-coin" and row["proposals"].startswith("unanimous"):
            assert row["mean_rounds"] == 1.0
    # Algorithm 3 on unanimous inputs: geometric(1/2), expected ~2 rounds.
    common_unanimous = [
        row["mean_rounds"]
        for row in report.rows
        if row["algorithm"] == "hybrid-common-coin" and row["proposals"].startswith("unanimous")
    ]
    assert all(1.0 <= value <= 3.5 for value in common_unanimous)
