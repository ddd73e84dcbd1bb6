"""Tests of the parallel execution engine (`repro.harness.parallel`)."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.aggregate import RunAggregate, SummaryReducer
from repro.harness.parallel import (
    default_chunksize,
    default_workers,
    resolve_workers,
    run_many,
    worker_pool,
)
from repro.harness.runner import ExperimentConfig
from repro.harness.stats import summarize
from repro.harness.sweep import grid, repeat, sweep
from repro.network.delays import ConstantDelay


def _base_config(algorithm="hybrid-local-coin"):
    return ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3), algorithm=algorithm, proposals="split"
    )


def _comparable(result):
    """Everything observable about a run except wall-clock time."""
    metrics = result.metrics.as_dict()
    metrics.pop("wall_time_seconds")
    return (
        metrics,
        result.sim_result.decisions,
        result.sim_result.decision_times,
        result.sim_result.rounds,
        result.proposals,
        result.report.ok,
    )


# -------------------------------------------------------------- worker resolution
def test_resolve_workers_clamps_to_task_count():
    assert resolve_workers(8, 3) == 3
    assert resolve_workers(2, 10) == 2
    assert resolve_workers(None, 0) == 1
    with pytest.raises(ValueError):
        resolve_workers(0, 5)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
    assert default_workers() == 3
    assert resolve_workers(None, 10) == 3
    monkeypatch.setenv("REPRO_MAX_WORKERS", "not-a-number")
    assert default_workers() >= 1


def test_default_chunksize_heuristic():
    assert default_chunksize(0, 4) == 1
    assert default_chunksize(1, 4) == 1
    assert default_chunksize(16, 4) == 1
    assert default_chunksize(160, 4) == 10
    assert default_chunksize(10_000, 4) == 64  # capped so chunks stay balanced
    assert default_chunksize(8) >= 1  # workers default to available_cpus()


# ------------------------------------------------------------------ determinism
def test_run_many_serial_is_seed_ordered():
    config = _base_config()
    seeds = [5, 1, 9]
    results = run_many([config.with_seed(seed) for seed in seeds], max_workers=1, check=True)
    assert [result.config.seed for result in results] == seeds


def test_run_many_parallel_matches_serial_exactly():
    config = _base_config()
    configs = [config.with_seed(seed) for seed in range(6)]
    serial = run_many(configs, max_workers=1, check=True)
    parallel = run_many(configs, max_workers=3, check=True)
    assert [result.config.seed for result in parallel] == list(range(6))
    for left, right in zip(serial, parallel):
        assert _comparable(left) == _comparable(right)


def test_repeat_parallel_matches_serial_for_every_algorithm():
    for algorithm in ("hybrid-common-coin", "ben-or"):
        config = _base_config(algorithm)
        serial = repeat(config, seeds=[0, 1, 2], check=True, max_workers=1, full_results=True)
        parallel = repeat(config, seeds=[0, 1, 2], check=True, max_workers=2, full_results=True)
        assert [_comparable(result) for result in serial] == [
            _comparable(result) for result in parallel
        ]


def test_repeat_summary_mode_is_deterministic_across_scheduling():
    """Regression: serial == parallel == chunked, bit for bit.

    Sketch priorities are spawned from the run index (never the worker), so
    the aggregate a sweep produces must not depend on the worker count or on
    how the batch was chunked for submission.
    """
    config = _base_config()
    seeds = list(range(8))
    serial = repeat(config, seeds, check=True, max_workers=1)
    parallel = repeat(config, seeds, check=True, max_workers=3)
    chunked_summaries = run_many(
        [config.with_seed(seed) for seed in seeds],
        max_workers=2,
        check=True,
        reducer=SummaryReducer(),
        chunksize=4,
    )
    chunked = RunAggregate.from_summaries(chunked_summaries)
    assert serial == parallel == chunked
    assert len(serial) == len(seeds)
    assert serial.termination_rate() == 1.0


def test_summary_and_full_modes_agree_exactly_below_sketch_capacity():
    config = _base_config()
    seeds = list(range(6))
    aggregate = repeat(config, seeds, check=True, max_workers=2)
    results = repeat(config, seeds, check=True, max_workers=2, full_results=True)
    for metric in ("messages_sent", "rounds_max", "sm_ops", "decision_time_max"):
        values = [getattr(result.metrics, metric) for result in results]
        exact = summarize(values)
        sketched = aggregate.summary(metric)
        assert sketched.count == exact.count
        assert sketched.mean == pytest.approx(exact.mean, rel=1e-12)
        assert sketched.minimum == exact.minimum and sketched.maximum == exact.maximum
        # below capacity the sketch holds the entire sample: exact percentiles
        assert sketched.median == exact.median
        assert sketched.p90 == exact.p90


def test_sweep_and_grid_parallel_match_serial():
    base = _base_config()
    variations = {
        "local": {"algorithm": "hybrid-local-coin"},
        "common": {"algorithm": "hybrid-common-coin"},
    }
    serial = sweep(base, variations, seeds=[0, 1], max_workers=1, full_results=True)
    parallel = sweep(base, variations, seeds=[0, 1], max_workers=2, full_results=True)
    assert serial.labels() == parallel.labels() == ["local", "common"]
    for label in serial.labels():
        left = [_comparable(result) for result in serial.point(label).results]
        right = [_comparable(result) for result in parallel.point(label).results]
        assert left == right

    axes = {"algorithm": ["hybrid-local-coin", "hybrid-common-coin"]}
    serial_grid = grid(base, axes, seeds=[3, 4], max_workers=1)
    parallel_grid = grid(base, axes, seeds=[3, 4], max_workers=2)
    assert serial_grid.labels() == parallel_grid.labels()
    assert serial_grid.table(["rounds_max", "messages_sent"]) == parallel_grid.table(
        ["rounds_max", "messages_sent"]
    )


def test_sweep_summary_mode_matches_full_mode_aggregates():
    base = _base_config()
    variations = {
        "local": {"algorithm": "hybrid-local-coin"},
        "common": {"algorithm": "hybrid-common-coin"},
    }
    summary_mode = sweep(base, variations, seeds=[0, 1, 2], max_workers=2)
    full_mode = sweep(base, variations, seeds=[0, 1, 2], max_workers=1, full_results=True)
    for label in summary_mode.labels():
        assert summary_mode.point(label).aggregate == full_mode.point(label).aggregate
        assert summary_mode.point(label).results is None
        assert len(full_mode.point(label).results) == 3
        with pytest.raises(ValueError, match="summary mode"):
            summary_mode.point(label).metrics


def test_summary_mode_check_raises_in_worker():
    from repro.core.properties import ConsensusViolation
    from repro.sim.kernel import SimConfig

    # Failure-free Ben-Or is expected to terminate, but split proposals can
    # never produce a round-1 majority, so a one-round cap guarantees a
    # liveness violation.  check=True in summary mode must surface it from
    # inside the worker -- without ever shipping the full result back.
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="ben-or",
        proposals="split",
        sim=SimConfig(max_rounds=1, max_time=5e4),
    )
    with pytest.raises(ConsensusViolation):
        repeat(config, seeds=[0, 1], check=True, max_workers=2)
    aggregate = repeat(config, seeds=[0, 1], check=False, max_workers=2)
    assert aggregate.safety_rate() == 1.0
    assert aggregate.termination_rate() == 0.0


# -------------------------------------------------------------------- fallbacks
def test_run_many_falls_back_for_non_picklable_configs():
    class LocalDelay(ConstantDelay):
        """Defined inside the test function, so workers cannot unpickle it."""

    config = ExperimentConfig(
        topology=ClusterTopology.even_split(4, 2),
        algorithm="hybrid-local-coin",
        proposals="split",
        delay_model=LocalDelay(1.0),
    )
    with pytest.warns(RuntimeWarning, match="fell back to the serial path"):
        results = run_many(
            [config.with_seed(seed) for seed in (0, 1)], max_workers=2, check=True
        )
    assert len(results) == 2
    assert all(result.terminated for result in results)


def test_fallback_only_for_pickling_and_transport_errors():
    import pickle

    from repro.harness.parallel import _should_fall_back

    assert _should_fall_back(pickle.PicklingError("boom"))
    assert _should_fall_back(TypeError("cannot pickle '_thread.lock' object"))
    assert _should_fall_back(AttributeError("Can't pickle local object 'f.<locals>.C'"))
    assert not _should_fall_back(TypeError("unsupported operand type(s) for +"))
    assert not _should_fall_back(AttributeError("'NoneType' object has no attribute 'x'"))
    assert not _should_fall_back(FileNotFoundError("missing.json"))


def test_worker_pool_shares_one_executor_and_matches_serial(monkeypatch):
    import concurrent.futures.process as pool_mod

    created = []
    real_pool = pool_mod.ProcessPoolExecutor

    class CountingPool(real_pool):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", CountingPool)
    configs = [_base_config().with_seed(seed) for seed in (0, 1)]
    serial = [_comparable(result) for result in run_many(configs, max_workers=1)]
    with worker_pool(2):
        first = run_many(configs)
        second = run_many(configs)
    assert len(created) == 1, "both run_many calls should reuse the context's pool"
    assert [_comparable(result) for result in first] == serial
    assert [_comparable(result) for result in second] == serial


def test_one_worker_builds_no_pool(monkeypatch, tmp_path):
    """``max_workers=1`` runs a whole plan, or a whole steal worker, in-process."""
    import concurrent.futures.process as pool_mod

    from repro.harness.coordinator import merge_stolen, run_work_stealing
    from repro.harness.distributed import plan_repeat, run_plan

    def no_pool(*args, **kwargs):
        raise AssertionError("max_workers=1 built a process pool")

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
    plan = plan_repeat(_base_config(), seeds=[0, 1, 2])
    aggregates = run_plan(plan, max_workers=1, exec_mode="process")
    worker = run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
    assert worker.runs_executed == aggregates["repeat"].count == 3
    assert merge_stolen(tmp_path, plan).aggregates == aggregates


def test_worker_pool_is_a_noop_for_one_worker():
    with worker_pool(1):
        (result,) = run_many([_base_config().with_seed(3)])
    assert result.terminated


def test_worker_pool_rejects_invalid_worker_counts():
    for bad in (0, -2):
        with pytest.raises(ValueError):
            with worker_pool(bad):
                pass


def test_run_many_empty_and_single_config():
    assert run_many([], max_workers=4) == []
    config = _base_config().with_seed(7)
    (result,) = run_many([config], max_workers=4, check=True)
    assert result.config.seed == 7 and result.terminated
