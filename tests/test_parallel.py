"""Tests of the parallel execution engine (`repro.harness.parallel`)."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.aggregate import RunAggregate, SummaryReducer
from repro.harness.distributed import (
    plan_grid,
    plan_repeat,
    plan_sweep,
    run_plan,
    variation_points,
)
from repro.harness.parallel import (
    default_chunksize,
    default_workers,
    resolve_workers,
    run_many,
    worker_pool,
)
from repro.harness.runner import ExperimentConfig
from repro.harness.stats import summarize
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


def test_run_many_parallel_matches_serial_for_every_algorithm():
    for algorithm in ("hybrid-common-coin", "ben-or"):
        configs = [_base_config(algorithm).with_seed(seed) for seed in (0, 1, 2)]
        serial = run_many(configs, max_workers=1, check=True)
        parallel = run_many(configs, max_workers=2, check=True)
        assert [_comparable(result) for result in serial] == [
            _comparable(result) for result in parallel
        ]


def test_summary_mode_is_deterministic_across_scheduling():
    """Regression: serial == parallel == chunked, bit for bit.

    Sketch priorities are spawned from the run index (never the worker), so
    the aggregate a plan produces must not depend on the worker count or on
    how the batch was chunked for submission.  16 runs at 2 workers are
    submitted in chunks of 2.
    """
    config = _base_config()
    seeds = list(range(16))
    configs = [config.with_seed(seed) for seed in seeds]
    assert default_chunksize(len(configs), 2) == 2

    full_serial = run_many(configs, max_workers=1, check=True)
    full_chunked = run_many(configs, max_workers=2, check=True)
    assert [_comparable(result) for result in full_serial] == [
        _comparable(result) for result in full_chunked
    ]
    reduced_serial = run_many(configs, max_workers=1, check=True, reducer=SummaryReducer())
    reduced_chunked = run_many(configs, max_workers=2, check=True, reducer=SummaryReducer())
    assert reduced_serial == reduced_chunked

    chunked = RunAggregate.from_summaries(reduced_chunked)
    plan = plan_repeat(config, seeds)
    serial = run_plan(plan, max_workers=1)["repeat"]
    parallel = run_plan(plan, max_workers=3)["repeat"]
    assert serial == parallel == chunked
    assert len(serial) == len(seeds)
    assert serial.termination_rate() == 1.0


def test_summary_and_full_modes_agree_exactly_below_sketch_capacity():
    config = _base_config()
    seeds = list(range(6))
    aggregate = run_plan(plan_repeat(config, seeds), max_workers=2)["repeat"]
    results = run_many([config.with_seed(seed) for seed in seeds], max_workers=2, check=True)
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


VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
}


def test_sweep_and_grid_parallel_match_serial():
    base = _base_config()
    plan = plan_sweep(base, VARIATIONS, seeds=[0, 1])
    serial = run_plan(plan, max_workers=1)
    assert list(serial) == ["local", "common"]
    assert run_plan(plan, max_workers=2) == serial

    grid = plan_grid(base, {"algorithm": ["hybrid-local-coin", "hybrid-common-coin"]}, seeds=[3, 4])
    assert run_plan(grid, max_workers=2) == run_plan(grid, max_workers=1)


def test_sweep_summary_mode_matches_full_mode_aggregates():
    """Reducing in the workers equals reducing the full results in the parent."""
    base = _base_config()
    seeds = [0, 1, 2]
    summary_mode = run_plan(plan_sweep(base, VARIATIONS, seeds), max_workers=2)
    configs = [
        config.with_seed(seed) for _, _, config in variation_points(base, VARIATIONS)
        for seed in seeds
    ]
    results = run_many(configs, max_workers=1, check=True)
    summaries = [SummaryReducer()(result, index) for index, result in enumerate(results)]
    for point, label in enumerate(VARIATIONS):
        start = point * len(seeds)
        full_mode = RunAggregate.from_summaries(summaries[start:start + len(seeds)])
        assert summary_mode[label] == full_mode


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
        run_plan(plan_repeat(config, seeds=[0, 1], check=True), max_workers=2)
    aggregate = run_plan(plan_repeat(config, seeds=[0, 1], check=False), max_workers=2)["repeat"]
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

    def no_pool(*args, **kwargs):
        raise AssertionError("max_workers=1 built a process pool")

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
    plan = plan_repeat(_base_config(), seeds=[0, 1, 2])
    aggregates = run_plan(plan, max_workers=1, exec_mode="process")
    worker = run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
    assert worker.runs_executed == aggregates["repeat"].count == 3
    assert merge_stolen(tmp_path, plan).aggregates == aggregates


@pytest.mark.parametrize("how", ["env", "auto"])
def test_a_plan_that_resolves_to_coop_builds_no_pool(monkeypatch, tmp_path, how):
    """Coop decided by ``REPRO_EXEC_MODE`` or by ``"auto"``, not by the argument."""
    import concurrent.futures.process as pool_mod

    from repro.harness import parallel
    from repro.harness.coordinator import merge_stolen, run_work_stealing

    def no_pool(*args, **kwargs):
        raise AssertionError("a coop run built a process pool")

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
    if how == "env":
        monkeypatch.setenv("REPRO_EXEC_MODE", "coop")
        exec_mode = None
    else:  # auto hosts large systems cooperatively; make n=6 large
        monkeypatch.setattr(parallel, "COOP_AUTO_THRESHOLD", 6)
        exec_mode = "auto"
    plan = plan_repeat(_base_config(), seeds=[0, 1, 2])
    aggregates = run_plan(plan, max_workers=2, exec_mode=exec_mode)
    run_work_stealing(plan, tmp_path, worker="solo", max_workers=2, exec_mode=exec_mode)
    assert merge_stolen(tmp_path, plan).aggregates == aggregates


@pytest.mark.parametrize(
    "exec_mode, env, max_workers, seeds, threshold, pooled",
    [
        pytest.param("process", {}, 2, 3, None, True, id="process"),
        pytest.param("process", {}, 1, 3, None, False, id="process-one-worker"),
        pytest.param("process", {}, 2, 1, None, False, id="process-one-seed"),
        pytest.param(None, {}, 2, 3, None, True, id="default-is-process"),
        pytest.param(None, {"REPRO_EXEC_MODE": "process"}, 2, 3, None, True, id="env-process"),
        pytest.param(None, {"REPRO_EXEC_MODE": "coop"}, 2, 3, None, False, id="env-coop"),
        pytest.param("process", {"REPRO_EXEC_MODE": "coop"}, 2, 3, None, True, id="argument-wins"),
        pytest.param(None, {"REPRO_MAX_WORKERS": "1"}, None, 3, None, False, id="env-one-worker"),
        pytest.param("coop", {}, 2, 3, None, False, id="coop"),
        pytest.param("auto", {}, 2, 3, None, True, id="auto-small"),
        pytest.param("auto", {}, 1, 3, None, False, id="auto-one-worker"),
        pytest.param("auto", {}, 2, 3, 6, False, id="auto-large"),
        pytest.param("auto", {}, 2, 3, 8, True, id="auto-mixed"),
    ],
)
def test_plan_pool_opens_a_pool_only_when_a_point_resolves_to_process(
    monkeypatch, exec_mode, env, max_workers, seeds, threshold, pooled
):
    """``plan_pool`` applies ``resolve_exec_mode`` per point, as ``run_many`` will.

    The plan has an n=6 and an n=8 point; ``threshold`` is the ``auto``
    cut-over, so 6 makes both points large and 8 only the second.
    """
    import concurrent.futures.process as pool_mod

    from repro.harness import parallel

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def shutdown(self):
            pass

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingPool)
    for name in ("REPRO_EXEC_MODE", "REPRO_MAX_WORKERS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if threshold is not None:
        monkeypatch.setattr(parallel, "COOP_AUTO_THRESHOLD", threshold)
    plan = plan_sweep(
        _base_config(),
        {
            "n6": {"topology": ClusterTopology.even_split(6, 3)},
            "n8": {"topology": ClusterTopology.even_split(8, 4)},
        },
        seeds=list(range(seeds)),
    )
    with parallel.plan_pool(plan, max_workers, exec_mode):
        assert (parallel._shared_pool is not None) == pooled
    assert created == ([max_workers] if pooled else [])
    assert parallel._shared_pool is None


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
