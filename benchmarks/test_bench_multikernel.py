"""Benchmark cooperative multi-kernel hosting against the serial baseline.

The tentpole gate (ISSUE 7): stepping K kernels cooperatively in one
process must not cost throughput versus running the same K kernels to
completion one after another -- equal total events, so the only difference
is the batch-boundary bookkeeping (a generator yield every
``DEFAULT_BATCH_EVENTS`` events plus slot rotation).  Bit-equality of the
interleaved results against the solo runs is asserted on every run; the
throughput bar is hard only under the shared ``strict_timing`` gate
(dedicated ``make bench`` run, >=4 usable CPUs), mirroring the kernel
hot-path gate in ``test_bench_micro.py``.

No harness path hosts runs cooperatively any more; the scheduler stays
for the perf ledger's tracer, and this gate keeps it honest while it does.
``test_bench_e8l_n1024_smoke`` is the large-n smoke point: the E8L n=1024
single-cluster run completes (and decides) in the CI benchmark lanes.
"""

import gc
import time

import pytest

from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import prepare_consensus
from repro.sim.multikernel import run_cooperative

# --------------------------------------------------------------- gate knobs
#: Cooperative slots (and kernels) in the throughput comparison.
COOP_K = 6
#: Topology of each hosted run; n=16/m=2 keeps one round of the gate ~1s.
COOP_N = 16
#: Interleaved measurement rounds for the gate (best-of on each side).
GATE_ROUNDS = 8
#: The acceptance bar: coop throughput >= the single-kernel baseline at
#: equal total events.  Batch bookkeeping costs well under 1% (one yield
#: per 4096 events); the 3% slack below parity absorbs timer granularity
#: and allocator noise, nothing more.
GATE_MIN_RATIO = 0.97


def _configs():
    topology = ClusterTopology.even_split(COOP_N, 2)
    return [
        ExperimentConfig(topology=topology, proposals="split", seed=2000 + index)
        for index in range(COOP_K)
    ]


def _run_serial():
    """Run the K kernels to completion one after another (the baseline).

    Only kernel execution is timed: preparation allocates thousands of
    objects per run and is identical on both sides, so it stays outside the
    measured region, with collection forced beforehand and the collector
    disabled inside so churn from one side's setup is never billed to the
    other's run.
    """
    kernels = [prepare_consensus(config).kernel for config in _configs()]
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        results = [kernel.run() for kernel in kernels]
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return results, wall


def _run_coop():
    """Host the same K kernels cooperatively in one scheduler."""
    kernels = [prepare_consensus(config).kernel for config in _configs()]
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        results = run_cooperative(kernels, width=COOP_K)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return results, wall


def _assert_bit_identical(solo, hosted):
    assert len(solo) == len(hosted) == COOP_K
    for alone, together in zip(solo, hosted):
        assert together.status is alone.status
        assert together.end_time == alone.end_time
        assert together.events_processed == alone.events_processed
        assert together.decisions == alone.decisions
        assert together.decision_times == alone.decision_times


@pytest.mark.timing
def test_bench_coop_throughput_gate(strict_timing):
    """Cooperative hosting >= single-kernel baseline at equal total events.

    Interleaved best-of-``GATE_ROUNDS`` runs on each side make the
    comparison robust to transient machine noise; the ``timing`` marker
    gives wall-clock flake one retry on top.  Bit-equality of every hosted
    result against its solo twin holds on every round, strict or not.
    """
    best = {"serial": float("inf"), "coop": float("inf")}
    for round_number in range(GATE_ROUNDS):
        serial_results, serial_wall = _run_serial()
        coop_results, coop_wall = _run_coop()
        best["serial"] = min(best["serial"], serial_wall)
        best["coop"] = min(best["coop"], coop_wall)
        _assert_bit_identical(serial_results, coop_results)
        if not strict_timing:
            break
    total_events = sum(result.events_processed for result in coop_results)
    ratio = best["serial"] / best["coop"]
    rate = total_events / best["coop"]
    if not strict_timing:
        pytest.skip(
            f"timing gate disabled (needs --benchmark-only and >=4 CPUs); "
            f"single-round ratio={ratio:.2f}x, {rate:,.0f} events/sec hosted"
        )
    assert ratio >= GATE_MIN_RATIO, (
        f"coop hosting at {ratio:.2f}x of the serial baseline, below the "
        f"{GATE_MIN_RATIO:.2f} gate (serial {best['serial']:.4f}s, coop "
        f"{best['coop']:.4f}s, {rate:,.0f} events/sec)"
    )


def test_bench_e8l_n1024_smoke(benchmark):
    """The E8L n=1024 point completes and decides.

    One seed, single-cluster: ~3.2M events in one kernel.  Runs (without
    the timing harness) in bench-smoke too, so every CI push proves the
    large-n path stays alive, not just the nightly lane.
    """
    from repro.experiments import e8l_large
    from repro.harness.distributed import run_plan

    plan = e8l_large.plan(seeds=[1000], sizes=(1024,))
    assert [point.label for point in plan.points] == ["n=1024/m=1"]
    aggregates = benchmark.pedantic(
        lambda: run_plan(plan), rounds=1, iterations=1, warmup_rounds=0
    )
    aggregate = aggregates["n=1024/m=1"]
    assert aggregate.count == 1
    assert aggregate.decided_count == 1
    assert aggregate.safe_count == 1
