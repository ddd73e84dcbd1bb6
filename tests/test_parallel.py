"""Tests of the parallel execution engine (`repro.harness.parallel`).

A batch on K workers runs on the caller plus K-1 forked helpers; whichever
process runs a configuration, the results must equal the serial path's in
order and value.
"""

import os
import signal
import sys
import time
import warnings

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
from repro.core.properties import ConsensusViolation
from repro.harness.runner import ExperimentConfig
from repro.harness.stats import summarize
from repro.network.delays import ConstantDelay
from repro.sim.kernel import SimConfig
from tests.helpers import golden_plans


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


# ------------------------------------------------------- the caller is a worker
class PidReducer:
    """Reduce a run to the pid of the process that ran it and its summary."""

    def __call__(self, result, index):
        return os.getpid(), SummaryReducer()(result, index)


def _wait_for(path, timeout=30.0):
    """Block until ``path`` exists: orders events across forked processes."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.001)


@pytest.fixture
def record_caller(monkeypatch, tmp_path):
    """Install a wrapper recording the seeds of the runs executed in this process.

    Forked helpers inherit the wrapper but append to their own copy of the
    list, so only the caller's runs show up in the returned list.  A helper
    starts a run only once the caller has started one, so the caller always
    claims the chunk after the helper's first, however fast the helper is.
    """
    from repro.harness import parallel

    def install():
        caller, started = os.getpid(), tmp_path / "caller-started"
        seen = []
        inner = parallel.run_consensus

        def recording(config):
            if os.getpid() == caller:
                seen.append(config.seed)
                started.touch()
            else:
                _wait_for(started)
            return inner(config)

        monkeypatch.setattr(parallel, "run_consensus", recording)
        return seen

    return install


def _undecidable(n, seed):
    """Ben-Or capped at one round: split proposals never decide, so ``check`` fails.

    The violation names the n undecided processes, so two of these with
    different n raise distinguishable errors.
    """
    return ExperimentConfig(
        topology=ClusterTopology.even_split(n, 2),
        algorithm="ben-or",
        proposals="split",
        sim=SimConfig(max_rounds=1, max_time=5e4),
        seed=seed,
    )


def test_the_caller_runs_part_of_the_batch_next_to_a_helper(record_caller):
    configs = [_base_config().with_seed(seed) for seed in range(3)]
    serial = run_many(configs, max_workers=1, reducer=PidReducer())
    caller_runs = record_caller()
    pooled = run_many(configs, max_workers=2, reducer=PidReducer())
    assert [summary for _, summary in pooled] == [summary for _, summary in serial]
    pids = [pid for pid, _ in pooled]
    # The helper is handed the first chunk and the caller claims the next.
    assert pids[0] != os.getpid() and pids[1] == os.getpid()
    # Nothing ran twice: the caller ran exactly the runs it reports.
    assert caller_runs == [seed for seed, pid in enumerate(pids) if pid == os.getpid()]


def test_full_results_from_caller_and_helper_equal_serial(record_caller):
    configs = [_base_config().with_seed(seed) for seed in range(3)]
    serial = run_many(configs, max_workers=1, check=True)
    caller_runs = record_caller()
    pooled = run_many(configs, max_workers=2, check=True)
    assert caller_runs[0] == 1 and 0 not in caller_runs
    assert [_comparable(result) for result in pooled] == [
        _comparable(result) for result in serial
    ]


@pytest.mark.parametrize("reducer", [None, SummaryReducer()], ids=["full", "reduced"])
def test_check_raises_the_lowest_failing_index_when_the_caller_fails_later(
    record_caller, reducer
):
    configs = [_undecidable(6, 0), _undecidable(8, 1)] + [
        _base_config().with_seed(seed) for seed in (2, 3)
    ]
    first_error = r"correct processes \[0, 1, 2, 3, 4, 5\] "
    with pytest.raises(ConsensusViolation, match=first_error):
        run_many(configs, max_workers=1, check=True, reducer=reducer)
    caller_runs = record_caller()
    with pytest.raises(ConsensusViolation, match=first_error):
        run_many(configs, max_workers=2, check=True, reducer=reducer)
    # Index 0 failed in the helper, index 1 in the caller: the earlier one
    # raised, and nothing after the failures was started.
    assert caller_runs == [1]


@pytest.mark.parametrize("reducer", [None, SummaryReducer()], ids=["full", "reduced"])
def test_a_killed_helper_costs_only_the_runs_it_had_not_returned(
    record_caller, monkeypatch, tmp_path, reducer
):
    """The helper dies on its second chunk; only the missing indices re-run, here.

    The caller's first run waits until the helper has started its second, so
    the helper returns seed 0, claims seed 2 and dies while the caller still
    holds seed 1.
    """
    from repro.harness import parallel

    configs = [_base_config().with_seed(seed) for seed in range(6)]
    serial = run_many(configs, max_workers=1, reducer=reducer)
    caller, second = os.getpid(), tmp_path / "helper-second-run"
    real_run = parallel.run_consensus
    helper_runs = []

    def dies_on_its_second_run(config):
        if os.getpid() == caller:
            _wait_for(second)
        else:
            helper_runs.append(config.seed)  # the helper's own copy
            if len(helper_runs) == 2:
                second.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return real_run(config)

    monkeypatch.setattr(parallel, "run_consensus", dies_on_its_second_run)
    caller_runs = record_caller()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pooled = run_many(configs, max_workers=2, reducer=reducer)
    if reducer is None:
        pooled, serial = map(_comparable, pooled), map(_comparable, serial)
    assert list(pooled) == list(serial)
    fallbacks = [warning for warning in caught if issubclass(warning.category, RuntimeWarning)]
    assert len(fallbacks) == 1
    assert "BrokenProcessPool" in str(fallbacks[0].message)
    # Seed 0 came back from the helper before it died; the caller ran the
    # rest once each and re-ran the lost seed 2 last.
    assert caller_runs == [1, 3, 4, 5, 2]


def test_a_helper_keeps_claiming_chunks_while_the_caller_is_busy(
    record_caller, monkeypatch, tmp_path
):
    """The caller's first run lasts until the helper has started its third."""
    from repro.harness import parallel

    configs = [_base_config().with_seed(seed) for seed in range(6)]
    serial = run_many(configs, max_workers=1, reducer=PidReducer())
    caller, third = os.getpid(), tmp_path / "helper-third-run"
    real_run = parallel.run_consensus
    helper_runs = []

    def slow_first_caller_run(config):
        if os.getpid() == caller:
            _wait_for(third)
        else:
            helper_runs.append(config.seed)  # the helper's own copy
            if len(helper_runs) == 3:
                third.touch()
        return real_run(config)

    monkeypatch.setattr(parallel, "run_consensus", slow_first_caller_run)
    caller_runs = record_caller()
    pooled = run_many(configs, max_workers=2, reducer=PidReducer())
    assert [summary for _, summary in pooled] == [summary for _, summary in serial]
    helper_seeds = [seed for seed, (pid, _) in enumerate(pooled) if pid != caller]
    assert helper_seeds[:3] == [0, 2, 3] and caller_runs[0] == 1


class IndexReducer:
    """Reduce a run to its input index."""

    def __call__(self, result, index):
        return index


def test_claims_survive_a_thread_switch_at_every_bytecode():
    """The caller and the helpers' done-callbacks share one chunk queue.

    More workers than this host's CPUs, two-run chunks and a tiny switch
    interval: a lost or doubled claim would drop or repeat an index.
    """
    configs = [_base_config().with_seed(seed) for seed in range(48)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert run_many(configs, max_workers=6, reducer=IndexReducer()) == list(range(48))
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------------ bit-identity
def _adversarial_config(seed=0):
    """An e9-style fault-injection config: the adversary's deferred events
    and duplicate deliveries must cross the pipe intact too."""
    from repro.adversary.library import build_scenario

    return ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        scenario=build_scenario("duplication-storm", n=6, intensity=0.4),
        seed=seed,
    )


def _summaries(configs, max_workers, **kwargs):
    """Run ``configs`` and reduce to RunSummary objects (entropy fixed)."""
    return run_many(
        configs, max_workers=max_workers, reducer=SummaryReducer(entropy=7), **kwargs
    )


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "make", [lambda seed: _base_config().with_seed(seed), _adversarial_config],
    ids=["plain", "adversarial"],
)
def test_caller_plus_helpers_equal_serial(k, make):
    configs = [make(seed) for seed in range(8)]
    assert _summaries(configs, k) == _summaries(configs, 1)


@pytest.fixture(scope="module")
def golden_aggregates():
    """Every golden plan's aggregates, keyed by worker count (1, 2, 3)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {
            k: {exp_id: run_plan(plan, max_workers=k) for exp_id, plan in golden_plans().items()}
            for k in (1, 2, 3)
        }


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("experiment", [f"e{i}" for i in range(1, 12)])
def test_every_experiment_plan_on_k_workers_equals_serial(golden_aggregates, experiment, k):
    """``RunAggregate.__eq__`` compares the folded summaries field by field
    (floats included), so a perturbed draw anywhere fails here."""
    serial, pooled = golden_aggregates[1][experiment], golden_aggregates[k][experiment]
    assert sorted(pooled) == sorted(serial)
    for label, aggregate in serial.items():
        assert pooled[label] == aggregate, f"{experiment}/{label} diverged on {k} workers"


# --------------------------------------------------------- the deprecated keyword
@pytest.mark.parametrize("name", ["process", "coop"])
def test_a_known_exec_mode_changes_nothing(name):
    configs = [_base_config().with_seed(seed) for seed in range(3)]
    assert _summaries(configs, 2, exec_mode=name) == _summaries(configs, 1)
    plan = plan_repeat(_base_config(), seeds=[0, 1, 2])
    assert run_plan(plan, max_workers=2, exec_mode=name) == run_plan(plan, max_workers=1)


def test_an_unknown_exec_mode_raises_naming_the_choices():
    with pytest.raises(ValueError, match=r"'auto'; choose from \('process', 'coop'\)"):
        run_many([_base_config()], exec_mode="auto")
    with pytest.raises(ValueError, match="choose from"):
        run_plan(plan_repeat(_base_config(), seeds=[0]), exec_mode="threads")


def test_the_environment_no_longer_selects_an_engine(monkeypatch):
    configs = [_base_config().with_seed(seed) for seed in range(3)]
    reference = _summaries(configs, 1)
    monkeypatch.setenv("REPRO_EXEC_MODE", "threads")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _summaries(configs, 2) == reference


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
    aggregates = run_plan(plan, max_workers=1)
    worker = run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
    assert worker.runs_executed == aggregates["repeat"].count == 3
    assert merge_stolen(tmp_path, plan).aggregates == aggregates


@pytest.mark.parametrize(
    "max_workers, seeds, helpers",
    [(2, 3, 1), (3, 3, 2), (1, 3, None), (2, 1, None)],
)
def test_plan_pool_forks_helpers_only_when_a_point_can_share(
    monkeypatch, max_workers, seeds, helpers
):
    """K workers share K - 1 helpers; one worker, or one run per point, shares nothing."""
    import concurrent.futures.process as pool_mod

    from repro.harness import parallel

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def shutdown(self):
            pass

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", RecordingPool)
    plan = plan_repeat(_base_config(), seeds=list(range(seeds)))
    with parallel.plan_pool(plan, max_workers):
        assert (parallel._shared_pool is not None) == (helpers is not None)
    assert created == ([] if helpers is None else [helpers])
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
