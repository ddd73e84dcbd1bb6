"""Benchmark the worker-side aggregation pipeline against full-result IPC.

Two quantities, matching the acceptance criteria of the aggregation PR:

* **bytes over the pipe** -- what a worker ships back per run: the pickled
  :class:`RunSummary` must be under 10% of the pickled full ``RunResult``
  at the paper-scale system size (n=64);
* **wall clock** -- a >=200-repetition ``run_many`` batch reduced in the
  workers must produce the *identical* aggregate that reducing the full
  results in the parent produces (the sketch is exact below its capacity of
  512) while never being slower.

Like the parallel-engine benchmark, the timing gate is live only in
dedicated benchmark runs (``make bench``, i.e. ``--benchmark-only``) on
hardware with at least 4 usable CPUs; the plain test suite and bench-smoke
runs use a smaller sweep and never flake on wall-clock numbers.
"""

import pickle

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.aggregate import RunAggregate, SummaryReducer
from repro.harness.parallel import available_cpus, run_many
from repro.harness.runner import ExperimentConfig, run_consensus

#: The system size the bytes-over-pipe criterion is stated at.
BYTES_N, BYTES_M = 64, 8
#: Sweep shape: repeats stays >=200 in every mode; the system size (and the
#: timing gate) scales up only in dedicated benchmark runs.
REPEATS = 200
PARALLEL_WORKERS = 4


def _config(n, m):
    return ExperimentConfig(
        topology=ClusterTopology.even_split(n, m),
        algorithm="hybrid-local-coin",
        proposals="split",
    )


def test_bench_aggregate_bytes_over_pipe():
    """Per-run IPC payload: summary < 10% of the full result at n=64."""
    reducer = SummaryReducer()
    full_bytes = summary_bytes = 0
    for index, seed in enumerate((1000, 1001, 1002)):
        result = run_consensus(_config(BYTES_N, BYTES_M).with_seed(seed))
        full_bytes += len(pickle.dumps(result))
        summary_bytes += len(pickle.dumps(reducer(result, index)))
    ratio = summary_bytes / full_bytes
    print()
    print(
        f"n={BYTES_N}: full-result IPC {full_bytes}B, summary IPC {summary_bytes}B "
        f"per {REPEATS} runs: {full_bytes * REPEATS // 3}B vs {summary_bytes * REPEATS // 3}B "
        f"(ratio {ratio:.3f})"
    )
    assert ratio < 0.10, f"summary payload is {ratio:.1%} of the full result, expected <10%"


# random_failure, not plain timing: the gate compares two measured paths,
# so it needs more headroom than a single rerun when the box is loaded.
@pytest.mark.random_failure(max_runs=3)
def test_bench_aggregate_sweep_throughput(benchmark, timed, strict_timing):
    # Smoke keeps the shape of the comparison (same repeat count, same
    # asserts modulo timing) on a size that stays fast on one core.
    n, m = (BYTES_N, BYTES_M) if strict_timing else (8, 2)
    samples = 2 if strict_timing else 1
    config = _config(n, m)
    configs = [config.with_seed(seed) for seed in range(REPEATS)]

    def full():
        return run_many(configs, max_workers=PARALLEL_WORKERS)

    def summary():
        summaries = run_many(configs, max_workers=PARALLEL_WORKERS, reducer=SummaryReducer())
        return RunAggregate.from_summaries(summaries)

    results, full_seconds = benchmark.pedantic(
        lambda: timed(full), rounds=1, iterations=1, warmup_rounds=0
    )
    for _ in range(samples - 1):
        _, seconds = timed(full)
        full_seconds = min(full_seconds, seconds)

    summary_aggregate, summary_seconds = timed(summary)
    for _ in range(samples - 1):
        aggregate, seconds = timed(summary)
        summary_seconds = min(summary_seconds, seconds)
        assert aggregate == summary_aggregate  # scheduling-independent, always

    speedup = full_seconds / max(summary_seconds, 1e-9)
    print()
    print(
        f"n={n} x {REPEATS} runs -- full results: {full_seconds:.3f}s  "
        f"summary mode: {summary_seconds:.3f}s  speedup: {speedup:.2f}x  "
        f"cores: {available_cpus()}"
    )

    # Identical statistics: with REPEATS below the sketch capacity the
    # summary-mode aggregate must equal, bit for bit, the aggregate computed
    # parent-side from the full results.
    reducer = SummaryReducer()
    full_aggregate = RunAggregate.from_summaries(
        reducer(result, index) for index, result in enumerate(results)
    )
    assert summary_aggregate == full_aggregate
    assert len(summary_aggregate) == REPEATS
    for metric in ("messages_sent", "rounds_max", "sm_ops", "decision_time_max"):
        assert summary_aggregate.mean(metric) == full_aggregate.mean(metric)
        assert summary_aggregate.percentile(metric, 90.0) == full_aggregate.percentile(metric, 90.0)

    if strict_timing:
        assert speedup >= 1.0, (
            f"summary mode should never be slower than full-result IPC, "
            f"got {speedup:.2f}x"
        )
