"""Benchmark E8 — Figure 2 domain reconstruction and the scalability trade-off sweep."""

from repro.experiments import e8_scalability
from repro.experiments.common import default_seeds, run_planned

SEEDS = default_seeds(4)


def test_bench_e8_scalability(benchmark):
    report = benchmark.pedantic(
        lambda: run_planned(
            e8_scalability.plan(seeds=SEEDS, sizes=(4, 8, 12)), e8_scalability.build_report
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(report.format())
    assert report.passed
    assert e8_scalability.figure2_domain_matches()
    # The trade-off: the all-shared-memory extreme uses fewer messages and
    # rounds than the all-message-passing extreme at every size.
    for n in (4, 8, 12):
        single = report.row_where(n=n, layout="m=1")
        singleton = report.row_where(n=n, layout="m=n")
        assert single["mean_messages"] <= singleton["mean_messages"]
        assert single["mean_rounds"] <= singleton["mean_rounds"]
