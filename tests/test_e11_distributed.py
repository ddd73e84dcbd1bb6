"""Sharded resilience sweeps: e11 bit-identity at any worker count.

The acceptance bar for the trace-driven delay models' harness integration:
``python -m repro run e11 --shard i/k`` + ``merge`` must reproduce the
single-host sweep *bit for bit* for k in {1, 3, 7} -- with the shards run
serially or on the caller plus helpers -- because the fitted
:class:`EmpiricalDelay` / :class:`ShiftedLogNormalDelay` models enter the
plan fingerprint through their value-only reprs exactly like the synthetic
models.  Shards produced under a different delay catalogue must be refused
with an error naming the offending field.
"""

import pytest

from repro.experiments import e11_resilience
from repro.experiments.common import default_seeds, run_planned
from repro.harness.distributed import (
    ManifestError,
    ShardSpec,
    merge_shards,
    run_plan,
    run_shard,
)

SEEDS = default_seeds(2)
E11_KWARGS = dict(
    seeds=SEEDS,
    scenarios=("none", "kill-during-recovery", "replica-loss-2"),
    delays=("empirical", "shifted-lognormal"),
    round_cap=15,
)


def _shard_and_merge(plan, out_dir, shard_count, max_workers=1):
    for index in range(1, shard_count + 1):
        run_shard(plan, ShardSpec(index, shard_count), out_dir, max_workers=max_workers)
    return merge_shards(out_dir, plan)


@pytest.mark.parametrize("shard_count", [1, 3, 7])
@pytest.mark.parametrize("max_workers", [1, 2, 3])
def test_e11_shard_merge_is_bit_identical_to_single_host(tmp_path, shard_count, max_workers):
    single = run_plan(e11_resilience.plan(**E11_KWARGS), max_workers=1)
    merged = _shard_and_merge(
        e11_resilience.plan(**E11_KWARGS), tmp_path, shard_count, max_workers=max_workers
    )
    assert set(merged.aggregates) == set(single)
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate  # dataclass eq: bit-for-bit


def test_e11_on_three_workers_equals_serial_run_summaries():
    """Spreading runs over the caller and two helpers perturbs no draw:
    the folded RunSummary streams match the serial path's exactly."""
    reference = run_plan(e11_resilience.plan(**E11_KWARGS), max_workers=1)
    pooled = run_plan(e11_resilience.plan(**E11_KWARGS), max_workers=3)
    assert sorted(pooled) == sorted(reference)
    for label, aggregate in reference.items():
        assert pooled[label] == aggregate


def test_e11_sharded_report_reproduces_driver_report(tmp_path):
    direct = run_planned(
        e11_resilience.plan(**E11_KWARGS), e11_resilience.build_report, max_workers=1
    )
    merged = _shard_and_merge(e11_resilience.plan(**E11_KWARGS), tmp_path, 3)
    report = e11_resilience.build_report(merged.plan, merged.aggregates)
    assert report.format(precision=12) == direct.format(precision=12)
    assert report.passed and direct.passed


def test_fitted_models_are_part_of_the_plan_fingerprint():
    base = e11_resilience.plan(**E11_KWARGS)
    assert base.fingerprint() == e11_resilience.plan(**E11_KWARGS).fingerprint()
    other_delays = e11_resilience.plan(
        seeds=SEEDS,
        scenarios=E11_KWARGS["scenarios"],
        delays=("uniform",),
        round_cap=15,
    )
    assert base.fingerprint() != other_delays.fingerprint()
    other_scenarios = e11_resilience.plan(
        seeds=SEEDS,
        scenarios=("none", "replica-loss-1"),
        delays=E11_KWARGS["delays"],
        round_cap=15,
    )
    assert base.fingerprint() != other_scenarios.fingerprint()


def test_manifests_record_scenarios_and_fitted_delay_models():
    plan = e11_resilience.plan(**E11_KWARGS)
    assert plan.scenario_names() == ["kill-during-recovery", "none", "replica-loss-2"]
    models = plan.delay_models()
    assert len(models) == 2
    assert any(model.startswith("EmpiricalDelay(resolution=64") for model in models)
    assert any(model.startswith("ShiftedLogNormalDelay(") for model in models)


def test_merge_refuses_mismatched_delay_catalogue_with_named_field(tmp_path):
    ran = e11_resilience.plan(
        seeds=SEEDS, scenarios=("none",), delays=("empirical",), round_cap=15
    )
    run_shard(ran, ShardSpec(1, 1), tmp_path, max_workers=1)
    foreign = e11_resilience.plan(
        seeds=SEEDS, scenarios=("none",), delays=("uniform",), round_cap=15
    )
    with pytest.raises(ManifestError, match="'delay_models'"):
        merge_shards(tmp_path, foreign)


def test_plan_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown delay name"):
        e11_resilience.plan(seeds=SEEDS, delays=("gaussian",))
    with pytest.raises(ValueError, match="unknown resilience scenario"):
        e11_resilience.plan(seeds=SEEDS, scenarios=("chaos",))


def test_resume_works_for_resilience_shards(tmp_path):
    plan = e11_resilience.plan(**E11_KWARGS)
    first = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert first.runs_executed > 0
    again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert not again.executed and again.already_done == first.executed


def test_restricted_plans_normalise_name_order():
    forward = e11_resilience.plan(
        seeds=SEEDS, scenarios=("none", "replica-loss-1"), delays=("empirical", "uniform")
    )
    backward = e11_resilience.plan(
        seeds=SEEDS, scenarios=("replica-loss-1", "none"), delays=("uniform", "empirical")
    )
    assert forward.fingerprint() == backward.fingerprint()


def test_workers_reproduce_empirical_delay_runs(tmp_path):
    """Fitted models pickle to pool workers and fold bit-identically."""
    plan = e11_resilience.plan(**E11_KWARGS)
    serial = run_plan(plan, max_workers=1)
    parallel = run_plan(e11_resilience.plan(**E11_KWARGS), max_workers=2)
    for label, aggregate in serial.items():
        assert parallel[label] == aggregate


def test_replica_loss_ladder_tracks_the_majority_boundary():
    """The ladder's meta walks survivors down to exactly the majority edge;
    asking for a rung past n // 2 is rejected at plan time."""
    plan = e11_resilience.plan(seeds=SEEDS, delays=("empirical",), round_cap=15)
    rungs = {
        point.meta["scenario"]: point.meta
        for point in plan.points
        if point.meta["scenario"].startswith("replica-loss-")
    }
    assert set(rungs) == {"replica-loss-1", "replica-loss-2", "replica-loss-3"}
    for meta in rungs.values():
        assert meta["min_survivors"] == 6 - meta["replicas_down"]
        assert meta["majority"] == 4
        assert meta["liveness_preserving"]
    assert rungs["replica-loss-3"]["min_survivors"] < rungs["replica-loss-3"]["majority"]
    with pytest.raises(ValueError, match="majority can always return"):
        e11_resilience.build_resilience_scenario("replica-loss-3", n=4)
