"""Tests of the harness: workloads, runner, metrics, stats, reporting."""

import random

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.harness.metrics import PHASES_PER_ROUND, RunMetrics
from repro.harness.distributed import plan_sweep, run_plan
from repro.harness.report import aggregate_records, format_records, format_table
from repro.harness.runner import ALGORITHMS, ExperimentConfig, run_consensus, termination_expected
from repro.harness.stats import mean, median, percentile, sample_std, summarize
from repro.harness.workloads import crash_scenarios, resolve_proposals, standard_topologies


# ------------------------------------------------------------------- workloads
def test_resolve_proposals_named_patterns():
    assert resolve_proposals("unanimous-0", 3) == {0: 0, 1: 0, 2: 0}
    assert resolve_proposals("unanimous-1", 2) == {0: 1, 1: 1}
    assert resolve_proposals("split", 4) == {0: 0, 1: 0, 2: 1, 3: 1}
    assert resolve_proposals("alternating", 4) == {0: 0, 1: 1, 2: 0, 3: 1}
    assert resolve_proposals("one-dissenter", 3) == {0: 0, 1: 0, 2: 1}
    randoms = resolve_proposals("random", 10, random.Random(0))
    assert set(randoms.values()) <= {0, 1}


def test_resolve_proposals_explicit_forms_and_errors():
    assert resolve_proposals({0: 1, 1: 0}, 2) == {0: 1, 1: 0}
    assert resolve_proposals([1, 0, 1], 3) == {0: 1, 1: 0, 2: 1}
    with pytest.raises(ValueError):
        resolve_proposals("random", 3)  # no rng
    with pytest.raises(ValueError):
        resolve_proposals("weird-pattern", 3)
    with pytest.raises(ValueError):
        resolve_proposals([1, 0], 3)  # wrong length
    with pytest.raises(ValueError):
        resolve_proposals({0: 1}, 2)  # incomplete mapping
    with pytest.raises(ValueError):
        resolve_proposals([2, 0], 2)  # not binary


def test_standard_topologies_cover_extremes():
    topos = standard_topologies(8)
    assert topos["single-cluster"].m == 1
    assert topos["singletons"].m == 8
    assert topos["majority-cluster"].majority_cluster_index() is not None
    assert all(topo.n == 8 for topo in topos.values())


def test_crash_scenarios_names_and_consistency():
    topo = ClusterTopology.figure1_right()
    scenarios = crash_scenarios(topo, rng=random.Random(0))
    assert scenarios["none"].crash_count() == 0
    assert scenarios["minority"].crash_count() == 3
    assert "majority-with-majority-cluster" in scenarios
    assert scenarios["majority-with-majority-cluster"].crashes_majority(topo.n)
    assert not scenarios["condition-violated"].allows_termination(topo)
    assert scenarios["one-per-cluster-survives"].allows_termination(topo)
    assert scenarios["random-minority"].crash_count() == 3
    no_majority = crash_scenarios(ClusterTopology.figure1_left())
    assert "majority-with-majority-cluster" not in no_majority


# ---------------------------------------------------------------------- runner
def test_experiment_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        ExperimentConfig(topology=ClusterTopology.single_cluster(2), algorithm="paxos")


def test_with_seed_changes_only_the_seed():
    config = ExperimentConfig(topology=ClusterTopology.single_cluster(2), seed=1)
    other = config.with_seed(9)
    assert other.seed == 9
    assert other.topology is config.topology
    assert other.algorithm == config.algorithm


def test_termination_expected_rules():
    topo = ClusterTopology.figure1_right()
    headline = FailurePattern.majority_crash_with_surviving_majority_cluster(topo)
    assert termination_expected("hybrid-local-coin", topo, headline)
    assert not termination_expected("ben-or", topo, headline)
    assert termination_expected("ben-or", topo, FailurePattern.crash_set({0, 5}))
    assert termination_expected("shared-memory", topo, headline)
    everyone = FailurePattern.crash_set(range(topo.n))
    assert not termination_expected("shared-memory", topo, everyone)
    with pytest.raises(ValueError):
        termination_expected("paxos", topo, headline)


@pytest.mark.parametrize("algorithm", sorted(set(ALGORITHMS) - {"shared-memory"}))
def test_run_consensus_smoke_every_algorithm(algorithm):
    topo = ClusterTopology.even_split(4, 2)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals="alternating", seed=1)
    )
    result.report.raise_on_violation()
    assert result.metrics.algorithm == algorithm
    assert result.metrics.n == 4 and result.metrics.m == 2


# --------------------------------------------------------------------- metrics
def test_metrics_fields_and_derived_quantities():
    topo = ClusterTopology.even_split(6, 3)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="hybrid-local-coin", proposals="unanimous-0", seed=0)
    )
    metrics = result.metrics
    assert metrics.status == "decided"
    assert metrics.decided_value == 0
    assert metrics.messages_sent >= metrics.n * metrics.n  # at least one all-to-all per phase
    assert metrics.sm_ops > 0
    assert metrics.consensus_objects_created >= topo.m
    assert metrics.phases_per_round == PHASES_PER_ROUND["hybrid-local-coin"]
    assert metrics.consensus_objects_per_phase == pytest.approx(topo.m, rel=0.01)
    assert metrics.invocations_per_process_per_phase == pytest.approx(1.0, rel=0.01)
    assert metrics.messages_per_round > 0
    assert metrics.decision_time_max >= metrics.decision_time_mean > 0
    as_dict = metrics.as_dict()
    assert as_dict["algorithm"] == "hybrid-local-coin"
    assert "consensus_objects_per_phase" in as_dict


def test_metrics_handle_zero_round_runs():
    metrics = RunMetrics(
        algorithm="shared-memory", n=3, m=1, seed=0, status="decided", terminated=True,
        decided_value=1, crashed=0, correct_deciders=3, rounds_max=0, rounds_mean=0.0,
        phases_per_round=1, messages_sent=0, messages_delivered=0, bytes_sent=0, sm_ops=6,
        consensus_objects_created=1, consensus_invocations=3, coin_flips=0,
        decision_time_max=0.1, decision_time_mean=0.1, end_time=0.1, events_processed=5,
    )
    assert metrics.consensus_objects_per_phase == 0.0
    assert metrics.invocations_per_process_per_phase == 0.0
    assert metrics.messages_per_round == 0.0


# ----------------------------------------------------------------------- stats
def test_basic_statistics():
    values = [1.0, 2.0, 3.0, 4.0]
    assert mean(values) == 2.5
    assert median(values) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert sample_std([5.0, 5.0, 5.0]) == 0.0
    assert sample_std([1.0]) == 0.0


def test_statistics_error_cases():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)
    with pytest.raises(ValueError):
        summarize([])


def test_summarize():
    stats = summarize([2.0, 4.0, 6.0, 8.0])
    assert stats.count == 4
    assert stats.mean == 5.0
    assert stats.minimum == 2.0 and stats.maximum == 8.0
    assert stats.median == 5.0
    low, high = stats.ci95
    assert low < stats.mean < high
    assert "±" in stats.format()


def test_percentile_single_value_and_interpolation():
    assert percentile([7.0], 90) == 7.0
    assert percentile([0.0, 10.0], 25) == 2.5


def test_percentile_duplicates_never_leave_the_sample_range():
    # Regression: the old form low*(1-w) + high*w could exceed max(values)
    # for near-equal tiny floats (hypothesis found this exact example).
    tiny = 9.238261545377998e-156
    for q in (0.0, 37.5, 50.0, 81.1875, 99.9, 100.0):
        assert percentile([tiny, tiny], q) == tiny
    assert percentile([5.0] * 7, 33.3) == 5.0


def test_percentile_denormal_values_stay_in_bounds():
    denormals = [5e-324, 1e-323, 2.5e-323, 4e-323]
    previous = None
    for q in range(0, 101):
        value = percentile(denormals, q)
        assert min(denormals) <= value <= max(denormals)
        if previous is not None:
            assert value >= previous  # monotone in q
        previous = value


def test_percentile_exact_at_q_0_50_100():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)
    assert percentile(values, 50) == median(values)
    odd = [2.0, 8.0, 5.0]
    assert percentile(odd, 50) == 5.0


# ------------------------------------------------------------------- reporting
def test_aggregate_records_from_aggregates_and_sweep_points():
    topo = ClusterTopology.even_split(4, 2)
    base = ExperimentConfig(topology=topo, algorithm="hybrid-local-coin", proposals="split")
    plan = plan_sweep(
        base,
        {
            "local": {"algorithm": "hybrid-local-coin"},
            "common": {"algorithm": "hybrid-common-coin"},
        },
        seeds=[0, 1, 2],
    )
    aggregates = run_plan(plan, max_workers=1)
    with_ci = aggregate_records(aggregates, ["messages_sent", "rounds_max"], ci=True)
    bare = aggregate_records(aggregates, ["messages_sent", "rounds_max"])
    assert [record["label"] for record in with_ci] == ["local", "common"]
    for full, plain in zip(with_ci, bare):
        assert full["runs"] == plain["runs"] == 3
        assert full["termination_rate"] == plain["termination_rate"] == 1.0
        assert full["messages_sent"] == plain["messages_sent"] > 0
        assert full["messages_sent_ci95"] >= 0.0
        assert "messages_sent_ci95" not in plain
    assert "rounds_max" in format_records(bare)


def test_format_table_and_records():
    table = format_table(["a", "b"], [[1, 2.345], ["x", True]], precision=1, title="T")
    assert "T" in table and "2.3" in table and "yes" in table
    records = format_records([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    assert "a" in records and "3" in records
    assert format_records([], title="empty") == "empty"
