"""Benchmark E5 — hybrid model vs m&m model: shared-memory cost per phase (Section III-C)."""

from repro.experiments import e5_mm_comparison
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(4)


def test_bench_e5_mm_comparison(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(
            e5_mm_comparison.plan(seeds=SEEDS, sizes=(8, 12), cluster_counts=(2, 4)),
            e5_mm_comparison.build_report,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    for n in (8, 12):
        for m in (2, 4):
            hybrid = report.row_where(model="hybrid-local-coin", n=n, m=m)
            mm = report.row_where(model="mm-local-coin", n=n, m=m)
            # m objects per phase vs n objects per phase.
            assert hybrid["predicted_objects_per_phase"] == float(m)
            assert mm["predicted_objects_per_phase"] == float(n)
            assert hybrid["objects_per_phase"] < mm["objects_per_phase"]
            # 1 invocation per process per phase vs alpha_i + 1.
            assert hybrid["invocations_per_process_per_phase"] < mm["invocations_per_process_per_phase"]
