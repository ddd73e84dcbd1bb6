"""Benchmark E2 — the headline claim: consensus despite a crashed majority.

Regenerates the rows comparing the hybrid algorithms (which terminate with a
majority of processes crashed, thanks to a surviving majority-cluster member)
against the Ben-Or control (which stays safe but cannot terminate).
"""

from repro.experiments import e2_majority_crash
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(5)


def test_bench_e2_majority_crash(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(
            e2_majority_crash.plan(seeds=SEEDS, sizes=(7, 11), control_round_cap=25),
            e2_majority_crash.build_report,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    hybrid_rows = [row for row in report.rows if row["algorithm"].startswith("hybrid")]
    control_rows = [row for row in report.rows if "control" in row["algorithm"]]
    assert all(row["termination_rate"] == 1.0 for row in hybrid_rows)
    assert all(row["crashed_majority"] for row in hybrid_rows)
    assert all(row["termination_rate"] == 0.0 and row["safety_rate"] == 1.0 for row in control_rows)
