"""Tests of the experiment modules E1–E9 (small seed counts for speed)."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentReport, default_seeds, run_planned
from repro.experiments import (
    e1_figure1,
    e2_majority_crash,
    e3_one_for_all,
    e4_rounds,
    e5_mm_comparison,
    e6_degenerate,
    e7_indulgence,
    e8_scalability,
    e9_adversary,
)

SEEDS = default_seeds(3)


# ------------------------------------------------------------------ common bits
def test_default_seeds_are_distinct_and_deterministic():
    assert default_seeds(5) == default_seeds(5)
    assert len(set(default_seeds(10))) == 10


def test_experiment_report_helpers():
    report = ExperimentReport(experiment_id="X", title="t", paper_claim="c")
    report.add_row(a=1, b=2)
    report.add_row(a=3, b=4)
    report.add_note("hello")
    assert report.column("a") == [1, 3]
    assert report.row_where(a=3) == {"a": 3, "b": 4}
    with pytest.raises(KeyError):
        report.row_where(a=99)
    report.passed = True
    text = report.format()
    assert "X" in text and "hello" in text and "PASSED" in text


def test_registry_contains_all_experiments():
    # The nine paper experiments plus the large-n (E8L), adaptive
    # adversary (E10) and flaky-host resilience (E11) extension drivers.
    assert sorted(ALL_EXPERIMENTS) == (
        ["E1", "E10", "E11"] + [f"E{i}" for i in range(2, 9)] + ["E8L", "E9"]
    )
    for module in ALL_EXPERIMENTS.values():
        assert callable(module.plan) and callable(module.build_report)
        assert isinstance(module.PAPER_CLAIM, str) and module.PAPER_CLAIM


# -------------------------------------------------------------- individual runs
def test_e1_figure1_reproduces():
    report = run_planned(e1_figure1.plan(seeds=SEEDS), e1_figure1.build_report)
    assert report.passed
    assert {row["decomposition"] for row in report.rows} == {"figure1-left", "figure1-right"}
    assert all(row["n"] == 7 and row["m"] == 3 for row in report.rows)


def test_e2_majority_crash_reproduces():
    report = run_planned(
        e2_majority_crash.plan(seeds=SEEDS, sizes=(7,)), e2_majority_crash.build_report
    )
    assert report.passed
    hybrid = report.row_where(algorithm="hybrid-local-coin", n=7)
    control = report.row_where(algorithm="ben-or (control)", n=7)
    assert hybrid["crashed_majority"] and hybrid["termination_rate"] == 1.0
    assert control["termination_rate"] == 0.0 and control["safety_rate"] == 1.0


def test_e3_one_for_all_reproduces():
    report = run_planned(e3_one_for_all.plan(seeds=SEEDS, n=6, m=3), e3_one_for_all.build_report)
    assert report.passed
    lone = report.row_where(algorithm="hybrid-local-coin", scenario="one-survivor-per-cluster")
    assert lone["termination_rate"] == 1.0
    assert lone["crashed"] == 3


def test_e4_rounds_reproduces():
    report = run_planned(
        e4_rounds.plan(seeds=default_seeds(10), sizes=(6,), cluster_counts=(3,)),
        e4_rounds.build_report,
    )
    assert report.passed
    unanimous = report.row_where(algorithm="hybrid-local-coin", proposals="unanimous-1", n=6)
    assert unanimous["max_rounds"] == 1


def test_e5_mm_comparison_reproduces():
    report = run_planned(
        e5_mm_comparison.plan(seeds=SEEDS, sizes=(8,), cluster_counts=(2,)),
        e5_mm_comparison.build_report,
    )
    assert report.passed
    hybrid = report.row_where(model="hybrid-local-coin", n=8, m=2)
    mm = report.row_where(model="mm-local-coin", n=8, m=2)
    assert hybrid["predicted_objects_per_phase"] == 2.0
    assert mm["predicted_objects_per_phase"] == 8.0
    assert hybrid["invocations_per_process_per_phase"] < mm["invocations_per_process_per_phase"]


def test_e6_degenerate_reproduces():
    report = run_planned(
        e6_degenerate.plan(seeds=default_seeds(6), n=5), e6_degenerate.build_report
    )
    assert report.passed
    shared = report.row_where(configuration="shared-memory baseline")
    assert shared["mean_messages"] == 0.0


def test_e7_indulgence_reproduces():
    report = run_planned(
        e7_indulgence.plan(seeds=SEEDS, n=6, m=3, round_cap=12), e7_indulgence.build_report
    )
    assert report.passed
    assert all(row["safety_rate"] == 1.0 for row in report.rows)
    assert all(not row["termination_expected"] for row in report.rows)


def test_e9_adversary_reproduces():
    report = run_planned(
        e9_adversary.plan(
            seeds=SEEDS, scenarios=("none", "lossy-links", "partition-drop"), intensities=(0.3,)
        ),
        e9_adversary.build_report,
    )
    assert report.passed
    assert all(row["safety_rate"] == 1.0 for row in report.rows)
    assert report.row_where(scenario="none")["termination_rate"] == 1.0
    lossy = report.row_where(scenario="lossy-links")
    assert not lossy["liveness_preserving"] and lossy["mean_omitted"] > 0


def test_e8_scalability_reproduces():
    report = run_planned(
        e8_scalability.plan(seeds=default_seeds(2), sizes=(4, 8)), e8_scalability.build_report
    )
    assert report.passed
    assert e8_scalability.figure2_domain_matches()
    single = report.row_where(n=8, layout="m=1")
    singleton = report.row_where(n=8, layout="m=n")
    assert single["mean_messages"] <= singleton["mean_messages"]
    assert single["mean_sm_ops"] > 0
