"""Benchmark E1 — Figure 1: both cluster decompositions of n=7, m=3.

Regenerates the experiment report for the paper's Figure 1 decompositions
(rows: decomposition x algorithm, columns: termination rate, rounds,
messages, shared-memory operations) and times one full report generation.
"""

from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(5)


def test_bench_e1_figure1(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(e1_figure1.plan(seeds=SEEDS), e1_figure1.build_report),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    assert len(report.rows) == 4
    # Both decompositions always reach a decision for both algorithms.
    assert all(row["termination_rate"] == 1.0 for row in report.rows)
