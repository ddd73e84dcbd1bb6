"""The kernel's stepping seam, the cooperative scheduler, and the e8l driver.

No execution path of the harness uses :mod:`repro.sim.multikernel` any
more (``run_many`` runs a batch on the caller plus forked helpers, see
``tests/test_parallel.py``); the scheduler and ``run_batch``'s event budget
stay because the perf ledger's tracer patches them.  What is tested here: a
run stepped in batches, alone or interleaved with K-1 cooperative
neighbours in any order, is bit-identical to the same run in one go.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import prepare_consensus, run_consensus
from repro.sim.kernel import SimulationKernel
from repro.sim.multikernel import (
    DEFAULT_BATCH_EVENTS,
    CooperativeScheduler,
    kernel_stepper,
    run_cooperative,
    scheduler_rng,
)

TOPOLOGY = ClusterTopology.even_split(8, 2)


# ----------------------------------------------------------- run_batch seam
class TestRunBatch:
    def test_budget_exhaustion_returns_none_then_same_result(self):
        config = ExperimentConfig(topology=TOPOLOGY, seed=3)
        reference = run_consensus(config).sim_result

        prepared = prepare_consensus(config)
        batches = 0
        while True:
            result = prepared.kernel.run_batch(100)
            if result is not None:
                break
            batches += 1
        assert batches > 1, "budget of 100 should take several batches"
        assert result.status is reference.status
        assert result.end_time == reference.end_time
        assert result.events_processed == reference.events_processed
        assert result.decisions == reference.decisions
        assert result.decision_times == reference.decision_times
        assert result.rounds == reference.rounds

    def test_events_processed_accumulates_across_batches(self):
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=4))
        kernel = prepared.kernel
        assert kernel.run_batch(50) is None
        assert kernel.events_processed == 50
        assert kernel.run_batch(70) is None
        assert kernel.events_processed == 120

    def test_invalid_budget_rejected(self):
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=5))
        with pytest.raises(ValueError):
            prepared.kernel.run_batch(0)
        with pytest.raises(ValueError):
            prepared.kernel.run_batch(-2)

    def test_no_processes_rejected(self):
        with pytest.raises(RuntimeError):
            SimulationKernel(seed=1).run_batch(10)

    def test_run_is_unlimited_run_batch(self):
        serial = run_consensus(ExperimentConfig(topology=TOPOLOGY, seed=6)).sim_result
        prepared = prepare_consensus(ExperimentConfig(topology=TOPOLOGY, seed=6))
        batched = prepared.kernel.run_batch(-1)
        assert batched is not None
        assert batched.events_processed == serial.events_processed
        assert batched.decisions == serial.decisions


# ------------------------------------------------------ scheduler mechanics
def _counting_driver(results, index, turns):
    for _ in range(turns):
        yield
    results.append(index)
    return f"driver-{index}"


class TestCooperativeScheduler:
    def test_width_and_interleave_validated(self):
        with pytest.raises(ValueError):
            CooperativeScheduler(width=0)
        with pytest.raises(ValueError):
            CooperativeScheduler(width=1, interleave="preemptive")
        with pytest.raises(ValueError):
            # Generator body runs on first next(), which is where the
            # batch_events validation lives.
            next(kernel_stepper(SimulationKernel(seed=1), batch_events=0))

    def test_results_in_input_order_with_backfill(self):
        finish_order = []
        # Uneven turn counts force finishes out of input order; slots
        # backfill from the pending queue as drivers complete.
        drivers = [
            _counting_driver(finish_order, 0, 9),
            _counting_driver(finish_order, 1, 1),
            _counting_driver(finish_order, 2, 5),
            _counting_driver(finish_order, 3, 0),
            _counting_driver(finish_order, 4, 2),
        ]
        results = CooperativeScheduler(width=2).run(drivers)
        assert results == [f"driver-{i}" for i in range(5)]
        assert finish_order != sorted(finish_order)

    def test_random_interleave_same_results(self):
        out_a, out_b = [], []
        results_rr = CooperativeScheduler(width=3).run(
            [_counting_driver(out_a, i, turns=i % 4) for i in range(7)]
        )
        results_rand = CooperativeScheduler(
            width=3, interleave="random", rng=scheduler_rng(123)
        ).run([_counting_driver(out_b, i, turns=i % 4) for i in range(7)])
        assert results_rr == results_rand == [f"driver-{i}" for i in range(7)]

    def test_scheduler_rng_is_spawned_namespace(self):
        # Distinct (seed, worker) namespaces derive distinct streams; the
        # same namespace re-derives the same stream -- the (worker,
        # subsystem) splitting contract.
        first = scheduler_rng(1, worker=0).stream("interleave").random()
        again = scheduler_rng(1, worker=0).stream("interleave").random()
        other_worker = scheduler_rng(1, worker=1).stream("interleave").random()
        assert first == again
        assert first != other_worker

    def test_run_cooperative_matches_solo_runs(self):
        configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(4)]
        solo = [run_consensus(config).sim_result for config in configs]
        kernels = [prepare_consensus(config).kernel for config in configs]
        hosted = run_cooperative(kernels, batch_events=64)
        for alone, together in zip(solo, hosted):
            assert together.end_time == alone.end_time
            assert together.events_processed == alone.events_processed
            assert together.decision_times == alone.decision_times


# ------------------------------------------------------------------ e8 large
class TestE8Large:
    def test_plan_large_caps_multi_cluster_layouts(self):
        from repro.experiments.e8l_large import MULTI_CLUSTER_MAX_N, plan as plan_large

        plan = plan_large(seeds=[1000], sizes=(8, MULTI_CLUSTER_MAX_N, 2048))
        labels = [point.label for point in plan.points]
        assert "n=8/m=2" in labels
        assert f"n={MULTI_CLUSTER_MAX_N}/m=2" in labels
        assert "n=2048/m=1" in labels
        assert "n=2048/m=2" not in labels
        assert plan.key == "E8L"

    def test_run_large_smoke_on_two_workers(self):
        """Smoke-scaled E8L: tiny sizes, caller plus one helper, report checks hold."""
        from repro.experiments import e8l_large
        from repro.experiments.common import run_planned

        report = run_planned(
            e8l_large.plan(seeds=[1000, 1001], sizes=(8, 16)),
            e8l_large.build_report,
            max_workers=2,
        )
        assert report.passed is True
        single = [row for row in report.rows if row["layout"] == "m=1"]
        assert [row["n"] for row in single] == [8, 16]
        for row in single:
            split = report.row_where(layout="m=2", n=row["n"])
            assert row["mean_messages"] < split["mean_messages"]

    def test_e8l_registered_in_cli_registry(self):
        from repro.cli import _resolve_experiment
        from repro.experiments import e8l_large

        assert _resolve_experiment("e8l") is e8l_large
        assert _resolve_experiment("e8l").plan().key == "E8L"


def test_cli_runs_on_two_workers_and_has_no_exec_mode(capsys):
    """``--max-workers 2`` drives a whole experiment; ``--exec-mode`` is gone."""
    from repro.cli import main

    assert main(["run", "e1", "--seeds", "2", "--max-workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out
    assert "reproduction check: PASSED" in out
    with pytest.raises(SystemExit):
        main(["run", "e1", "--seeds", "1", "--exec-mode", "coop"])
    assert "unrecognized arguments: --exec-mode" in capsys.readouterr().err


def test_default_batch_events_is_sane():
    assert DEFAULT_BATCH_EVENTS >= 256
