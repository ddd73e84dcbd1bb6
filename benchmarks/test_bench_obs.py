"""The dormant-observability overhead gate on the n=64 kernel flood.

The observability layer touches the simulation side in three places:
``SimulationKernel._result`` gained the ``trace_sink`` dump (one ``is
None`` check per *run*), and ``ProcessContext`` gained the
``round``/``phase`` span markers (one ``trace.enabled`` check per call
when tracing is off).  The worker telemetry registry lives entirely in
the sweep coordinator -- it is never on the kernel path -- so the kernel
flood is the whole dormant surface.

The contract is the adversary-hook gate's
(``benchmarks/test_bench_adversary.py``): a kernel with tracing *off*
and no sink must regress less than 2% against the pre-observability
code.  That code is derived from the live methods by
:func:`benchmarks.stripped.stripped`, without the branches :data:`PREOBS`
names, plus a bare no-op where ``mark_phase`` did not yet exist; both
variants are timed on a marker-annotated flood at n=64.  A renamed check
changes a count, and the derivation fails naming the pattern;
``tests/test_dormant_gates.py`` checks that each derived method differs
from the live one by exactly those branches.

Like every timing gate in this repo, the hard assert is live only in
dedicated benchmark runs (``make bench``, i.e. ``--benchmark-only``)
with at least 4 usable CPUs; plain CI executions only smoke the paths.
"""

import gc
import statistics
import time

import pytest

from benchmarks.stripped import stripped
from benchmarks.test_bench_micro import FLOOD_N, FLOOD_ROUNDS
from repro.core.base import PhaseMessage
from repro.network.transport import Network
from repro.sim.config import SimConfig
from repro.sim.context import ProcessContext
from repro.sim.kernel import RunStatus, SimulationKernel
from repro.sim.rng import RandomSource

#: Timing-gate knobs: paired interleaved rounds, best round kept per variant.
ROUNDS = 9
RUNS_PER_ROUND = 2
OVERHEAD_LIMIT = 1.02


# ------------------------------------------------------- pre-obs reconstruction
#: What the observability layer added to each method the gate strips, as
#: :func:`~benchmarks.stripped.stripped` patterns and their node counts.
PREOBS = {
    (SimulationKernel, "_result"): {"if_false": {"self.trace_sink is not None": 1}},
    (ProcessContext, "mark_round"): {"if_false": {"kernel.trace.enabled": 1}},
}


def _preobs_mark_phase(self, name):
    """Pre-obs there was no ``mark_phase``; absence costs one bare call."""


def _patch_preobs(patcher):
    """Patch the pre-obs methods in: the stripped ones, and the no-op ``mark_phase``."""
    stripped_methods = [
        (owner, name, stripped(getattr(owner, name), **patterns))
        for (owner, name), patterns in PREOBS.items()
    ]
    for owner, name, method in stripped_methods:
        patcher.setattr(owner, name, method)
    patcher.setattr(ProcessContext, "mark_phase", _preobs_mark_phase)


# ------------------------------------------------------------------- workload
def _marker_flood(ctx):
    """The n=64 all-to-all flood, annotated the way algorithm code would be.

    Identical message mix to ``benchmarks.test_bench_micro._flood`` plus
    one ``mark_round`` and one ``mark_phase`` per round -- the dormant
    markers whose disabled cost the gate bounds.
    """
    for round_number in range(FLOOD_ROUNDS):
        ctx.mark_round(round_number + 1)
        ctx.mark_phase("broadcast")
        message = PhaseMessage(
            tag="bench", round_number=round_number, phase=1, est=round_number % 2
        )
        yield from ctx.broadcast(message)
        need = (round_number + 1) * FLOOD_N
        yield from ctx.wait_until(lambda mailbox, need=need: True if len(mailbox) >= need else None)
    return 1


def _run_marker_flood():
    """One measured flood run: returns the simulation result and seconds.

    Only ``kernel.run()`` is timed, with collection forced beforehand and
    the collector disabled inside the timed region (same discipline as the
    kernel-throughput gate in ``test_bench_micro``).
    """
    rng = RandomSource(42)
    kernel = SimulationKernel(config=SimConfig(), rng=rng)
    kernel.attach_network(Network(FLOOD_N, rng=rng))
    for pid in range(FLOOD_N):
        kernel.add_process(pid, _marker_flood)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = kernel.run()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    assert result.status is RunStatus.DECIDED
    assert not kernel.trace.enabled  # the gate measures the *dormant* path
    return result, wall


def _time_floods():
    total = 0.0
    for _ in range(RUNS_PER_ROUND):
        total += _run_marker_flood()[1]
    return total


# -------------------------------------------------------------------- the gate
@pytest.mark.timing
def test_dormant_observability_overhead_under_2_percent(strict_timing):
    """Current kernel vs reconstructed pre-obs kernel on the marker flood.

    Rounds are interleaved (current, stripped, current, ...) so slow host
    drifts hit both variants equally; the best round of each side is
    compared -- the most noise-robust estimate for a "how fast can this
    go" question.
    """
    current_times, stripped_times = [], []
    _run_marker_flood()  # warm-up (imports, allocator, branch caches)
    for _ in range(ROUNDS if strict_timing else 1):
        current_times.append(_time_floods())
        with pytest.MonkeyPatch.context() as patcher:
            _patch_preobs(patcher)
            stripped_times.append(_time_floods())

    if not strict_timing:
        pytest.skip(
            "timing gate runs only under --benchmark-only with >= 4 usable CPUs "
            f"(smoke: current {current_times[0]:.4f}s, stripped {stripped_times[0]:.4f}s)"
        )
    current, stripped = min(current_times), min(stripped_times)
    overhead = current / stripped
    assert overhead < OVERHEAD_LIMIT, (
        f"dormant observability overhead {overhead:.4f}x vs the pre-obs kernel "
        f"(limit {OVERHEAD_LIMIT}x): current best {current:.4f}s over "
        f"{statistics.median(current_times):.4f}s median, stripped best {stripped:.4f}s"
    )


def test_preobs_reconstruction_is_behaviourally_identical():
    """The stripped kernel must produce the same runs, or the gate is fiction."""
    current, _ = _run_marker_flood()
    with pytest.MonkeyPatch.context() as patcher:
        _patch_preobs(patcher)
        stripped, _ = _run_marker_flood()
    assert current.decisions == stripped.decisions
    assert current.end_time == stripped.end_time
    assert current.events_processed == stripped.events_processed
    assert current.rounds == stripped.rounds


def test_dormant_flood_records_and_writes_nothing(tmp_path):
    """With tracing off and no sink, the flood leaves zero observability residue."""
    result, _ = _run_marker_flood()
    assert result.events_processed > 0
    sink = tmp_path / "trace.jsonl"
    rng = RandomSource(42)
    kernel = SimulationKernel(config=SimConfig(), rng=rng)
    kernel.attach_network(Network(FLOOD_N, rng=rng))
    for pid in range(FLOOD_N):
        kernel.add_process(pid, _marker_flood)
    kernel.run()
    assert len(kernel.trace) == 0
    assert not sink.exists()
