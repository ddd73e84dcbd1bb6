"""Benchmark the parallel engine (``run_many``) against the serial path.

An E8-style scalability batch (4 topology points x 5 seeds) is run twice:
once with ``max_workers=1`` (the serial path) and once with a worker pool.
The two must produce identical results; on a machine with at least 4 cores
the parallel sweep must also be at least 2x faster wall-clock.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.parallel import available_cpus, run_many
from repro.harness.runner import ExperimentConfig

SEEDS = [1000 + index for index in range(5)]
SIZES = (4, 8, 12, 16)
PARALLEL_WORKERS = 4


def _scalability_sweep(max_workers):
    # Full results: this benchmark compares per-run results bit for bit; the
    # summary-mode pipeline has its own benchmark in test_bench_aggregate.py.
    configs = [
        ExperimentConfig(
            topology=ClusterTopology.even_split(n, 2),
            algorithm="hybrid-local-coin",
            proposals="split",
            seed=seed,
        )
        for n in SIZES
        for seed in SEEDS
    ]
    return run_many(configs, max_workers=max_workers, check=True)


# random_failure, not plain timing: the >=2x bar depends on pool spawn
# latency and free cores, the two things CI neighbours perturb most.
@pytest.mark.random_failure(max_runs=3)
def test_bench_parallel_sweep_throughput(benchmark, timed, strict_timing):
    # The hard >=2x assert is live only when the shared strict_timing gate
    # holds (dedicated `make bench` run, >=4 usable CPUs).  When live,
    # compare best-of-3 timings so a single scheduling hiccup (pool spawn, a
    # noisy neighbour) cannot fail the gate; other runs keep a single sample.
    samples = 3 if strict_timing else 1

    serial, serial_seconds = timed(lambda: _scalability_sweep(max_workers=1))
    for _ in range(samples - 1):
        _, seconds = timed(lambda: _scalability_sweep(max_workers=1))
        serial_seconds = min(serial_seconds, seconds)
    parallel, parallel_seconds = benchmark.pedantic(
        lambda: timed(lambda: _scalability_sweep(max_workers=PARALLEL_WORKERS)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    for _ in range(samples - 1):
        _, seconds = timed(lambda: _scalability_sweep(max_workers=PARALLEL_WORKERS))
        parallel_seconds = min(parallel_seconds, seconds)
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print()
    print(
        f"serial: {serial_seconds:.3f}s  parallel({PARALLEL_WORKERS} workers): "
        f"{parallel_seconds:.3f}s  speedup: {speedup:.2f}x  cores: {available_cpus()}"
    )

    # Identical runs, in input order, with bit-identical metrics (wall time aside).
    assert len(serial) == len(parallel) == len(SIZES) * len(SEEDS)
    for left, right in zip(serial, parallel):
        left_metrics = left.metrics.as_dict()
        right_metrics = right.metrics.as_dict()
        left_metrics.pop("wall_time_seconds")
        right_metrics.pop("wall_time_seconds")
        assert left_metrics == right_metrics
        assert left.sim_result.decisions == right.sim_result.decisions

    if strict_timing:
        assert speedup >= 2.0, f"expected >=2x speedup on >=4 cores, got {speedup:.2f}x"
