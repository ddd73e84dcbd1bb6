"""Benchmarks of the adversary subsystem and its no-adversary overhead gate.

The fault-injection hooks touch the kernel loop's three hottest places: event
dispatch (one hoisted ``defers_events`` test per event), the send effect (one
hoisted ``faults_links`` test) and deliveries and steps (one ``paused``
attribute check).  Both flags are False with no adversary installed -- and
with one whose scenario cannot fire the hook, which therefore runs the same
code (``tests/test_adversary_hooks.py`` gates that by call counts).  The
contract is that such a kernel regresses less than 2% against the pre-hook
kernel.  The pre-hook ``run_batch`` is derived from the live one by
:func:`benchmarks.stripped.stripped`, with the nodes :data:`PREHOOK` names
taken out, then monkeypatched onto the kernel class and timed against the
real one on the same workload.  A renamed flag or a moved hook changes a
count, and the derivation fails naming the pattern;
``tests/test_dormant_gates.py`` checks that the two functions differ by
exactly those nodes.

Like every timing gate in this repo, the hard assert is live only in
dedicated benchmark runs (``make bench``, i.e. ``--benchmark-only``) with
at least 4 usable CPUs; plain CI executions only smoke the code paths.
"""

import statistics
import time

import pytest

from benchmarks.stripped import stripped
from repro.adversary import build_scenario, scenario_names
from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_consensus
from repro.sim.config import SimConfig
from repro.sim.kernel import SimulationKernel

TOPOLOGY = ClusterTopology.figure1_right()
#: Timing-gate knobs: paired interleaved rounds of several runs each, best
#: round kept per variant -- repeatability beats raw sample counts here.
ROUNDS = 9
RUNS_PER_ROUND = 4
OVERHEAD_LIMIT = 1.02

#: What ``SimulationKernel.run_batch`` has that the pre-hook loop has not,
#: as :func:`~benchmarks.stripped.stripped` patterns and their node counts:
#: the hoisted adversary handles, the ``defers_events`` consultation, both
#: ``paused`` checks (which exist only for the pause/recover faults), and
#: the ``faults_links`` send branch (its plain arm is kept).
PREHOOK = {
    "unassigned": {"adversary": 1, "defers_events": 1, "faults_links": 1},
    "if_false": {"defers_events": 1, "proc.paused": 2},
    "if_true": {"not faults_links": 1},
}


def stripped_run_batch():
    """``run_batch`` without the hooks.

    It replaces ``run_batch`` rather than ``run``, so both sides run inside
    the same ``collector_paused`` block of ``run``.
    """
    return stripped(SimulationKernel.run_batch, **PREHOOK)


def _workload():
    """One deterministic consensus run dominated by kernel event handling."""
    config = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", proposals="split", seed=5
    )
    result = run_consensus(config)
    assert result.terminated
    return result


def _time_workload():
    start = time.perf_counter()
    for _ in range(RUNS_PER_ROUND):
        _workload()
    return time.perf_counter() - start


# -------------------------------------------------------------------- the gate
@pytest.mark.timing
def test_no_adversary_hot_path_overhead_under_2_percent(strict_timing):
    """Hooked kernel vs reconstructed pre-hook kernel on the same workload.

    Rounds are interleaved (hooked, stripped, hooked, ...) so slow drifts of
    the host hit both variants equally; the best round of each side is
    compared, which is the most noise-robust point estimate for a "how fast
    can this go" question.
    """
    prehook = stripped_run_batch()
    hooked_times, stripped_times = [], []
    _workload()  # warm-up (imports, allocator, branch caches)
    for _ in range(ROUNDS if strict_timing else 1):
        hooked_times.append(_time_workload())
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(SimulationKernel, "run_batch", prehook)
            stripped_times.append(_time_workload())

    if not strict_timing:
        pytest.skip(
            "timing gate runs only under --benchmark-only with >= 4 usable CPUs "
            f"(smoke: hooked {hooked_times[0]:.4f}s, stripped {stripped_times[0]:.4f}s)"
        )
    hooked, stripped = min(hooked_times), min(stripped_times)
    overhead = hooked / stripped
    assert overhead < OVERHEAD_LIMIT, (
        f"no-adversary kernel hot path regressed {overhead:.4f}x vs the pre-hook "
        f"kernel (limit {OVERHEAD_LIMIT}x): hooked best {hooked:.4f}s over "
        f"{statistics.median(hooked_times):.4f}s median, stripped best {stripped:.4f}s"
    )


def test_prehook_reconstruction_is_behaviourally_identical():
    """The stripped kernel must produce the same runs, or the gate is fiction."""
    hooked = _workload()
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(SimulationKernel, "run_batch", stripped_run_batch())
        stripped = _workload()
    assert hooked.sim_result.decisions == stripped.sim_result.decisions
    assert hooked.sim_result.end_time == stripped.sim_result.end_time
    assert hooked.metrics.events_processed == stripped.metrics.events_processed
    assert hooked.metrics.messages_sent == stripped.metrics.messages_sent > 0
    assert hooked.metrics.bytes_sent == stripped.metrics.bytes_sent > 0


# --------------------------------------------------------------- scenario costs
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_bench_scenario_run(benchmark, name):
    """Throughput of one consensus run under each library scenario."""
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        proposals="split",
        seed=7,
        sim=SimConfig(max_rounds=30, max_time=5e4),
        scenario=build_scenario(name, n=6, intensity=0.3),
    )

    def run():
        result = run_consensus(config)
        assert result.report.agreement and result.report.validity
        return result

    benchmark(run)
