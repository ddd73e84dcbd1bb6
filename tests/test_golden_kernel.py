"""Bit-identity of the refactored kernel against the pre-refactor fixture.

``tests/golden/kernel_summaries.json`` froze every ``RunSummary`` of the
small e1-e9 sweep plans (``tests.helpers.golden_plans``) as produced by the
PRE-refactor kernel -- dataclass queue entries, per-call delay sampling, no
``__slots__``.  This test recomputes the same runs on the current kernel and
asserts every summary matches exactly: floats are compared through their
``float.hex()`` serialisation, so "close" is not good enough.  (The e11
entry was appended later, regenerated against a green current kernel, to
pin the empirical-delay sampling path the same way.)

The fixture spans every kernel-exercising experiment, including the
adversarial scenarios (e9), the empirical-delay resilience runs (e11) and
the shard/steal merge inputs (per-run summaries + priorities are
exactly what the distributed coordinator merges), so a green run here is the
acceptance evidence that the hot-path refactor changed no observable
behaviour.  Regenerate the fixture only for a deliberate, understood
behaviour change: ``python scripts/gen_golden_summaries.py``.

The fixture holds summaries only, so three whole traces are pinned as well
(``TRACE_DIGESTS``): every entry's time, kind, pid, detail and data, hashed.
The literals are what the single-heap loop of commit ``10673c5`` printed --
before messages in flight moved to a heap of their own and a broadcast became
one effect -- so event order, every ``send``/``event``/``omit`` record and
every timestamp are shown equal, not inferred from the totals.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.adversary import build_scenario
from repro.cluster.topology import ClusterTopology
from repro.harness.runner import ExperimentConfig, prepare_consensus
from repro.network.transport import Network
from repro.sim.kernel import SimConfig, SimulationKernel
from repro.sim.rng import RandomSource
from tests.helpers import GOLDEN_EXPERIMENTS, compute_golden_summaries

FIXTURE = pathlib.Path(__file__).parent / "golden" / "kernel_summaries.json"


@pytest.fixture(scope="module")
def golden_fixture():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current_summaries():
    return compute_golden_summaries()


def test_fixture_exists_and_covers_all_experiments(golden_fixture):
    assert golden_fixture["format"] == 1
    assert sorted(golden_fixture["experiments"]) == sorted(GOLDEN_EXPERIMENTS)


def test_priority_backend_matches(golden_fixture, current_summaries):
    """Priorities are comparable only when computed by the same backend."""
    assert current_summaries["priority_backend"] == golden_fixture["priority_backend"]


@pytest.mark.parametrize("experiment", [f"e{i}" for i in range(1, 10)] + ["e11"])
def test_kernel_reproduces_prerefactor_summaries(golden_fixture, current_summaries, experiment):
    expected_points = golden_fixture["experiments"][experiment]
    actual_points = current_summaries["experiments"][experiment]
    assert len(actual_points) == len(expected_points)
    for expected, actual in zip(expected_points, actual_points):
        assert actual["label"] == expected["label"]
        # Compare run by run for a readable diff on mismatch; the dicts
        # already serialise floats as exact float.hex() strings.
        assert len(actual["runs"]) == len(expected["runs"])
        for expected_run, actual_run in zip(expected["runs"], actual["runs"]):
            assert actual_run == expected_run, (
                f"{experiment}/{expected['label']} seed={expected_run['seed']}: "
                "summary diverged from the pre-refactor kernel"
            )


# ------------------------------------------------------------ whole traces
def _e9_kernel(scenario, seed):
    """One traced run of the e9 plan's configuration under ``scenario``@0.3."""
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        proposals="split",
        seed=seed,
        scenario=build_scenario(scenario, n=6, intensity=0.3),
        sim=SimConfig(max_rounds=30, max_time=5e4, trace=True),
    )
    kernel = prepare_consensus(config).kernel
    kernel.run()
    return kernel


def _flood_kernel(n=16, rounds=2):
    """A traced all-to-all broadcast flood straight on kernel and network."""

    def proc(ctx):
        for round_number in range(rounds):
            yield from ctx.broadcast(("flood", round_number))
            need = (round_number + 1) * n
            yield from ctx.wait_until(lambda mailbox, need=need: True if len(mailbox) >= need else None)
        return 1

    rng = RandomSource(7)
    kernel = SimulationKernel(config=SimConfig(trace=True), rng=rng)
    kernel.attach_network(Network(n, rng=rng))
    for pid in range(n):
        kernel.add_process(pid, proc)
    kernel.run()
    return kernel


#: name -> (run, trace kinds it must exercise, entries, SHA-256 at 10673c5).
TRACE_DIGESTS = {
    "e9-chaos": (
        lambda: _e9_kernel("chaos", seed=1),
        {"send", "event", "omit", "pause", "recover", "block", "decide"},
        909,
        "0a5de10af7cee363bbf9a6762d2dfec6241f667e197c44775fadf400c8616ef0",
    ),
    # A slowdown: every event of the slowed minority is deferred and re-offered.
    "e9-slow-minority": (
        lambda: _e9_kernel("slow-minority", seed=1),
        {"send", "event", "block", "decide"},
        339,
        "204b683d5e805ba655e6d8ec33ab03fc61ce5408b51ae61f308fb42d609e6d3a",
    ),
    "flood-n16": (
        _flood_kernel,
        {"send", "event", "block", "decide"},
        1632,
        "146812225c07e6b2d9fbb913458f5f5b08e64bd438338a9dec060f4dafdebefc",
    ),
}


def _set_reprs_sorted(detail):
    """``detail`` with every ``frozenset({...})`` written in sorted order.

    ``⊥`` hashes by address, so the order a set repr lists it in is the one
    thing in a trace that differs between two interpreters.
    """
    return re.sub(
        r"frozenset\(\{([^{}]*)\}\)",
        lambda match: "frozenset({%s})" % ", ".join(sorted(match.group(1).split(", "))),
        detail,
    )


def _trace_digest(trace):
    lines = [
        json.dumps(
            [entry.time.hex(), entry.kind, entry.pid, _set_reprs_sorted(entry.detail), entry.data],
            sort_keys=True,
        )
        for entry in trace.entries
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", list(TRACE_DIGESTS))
def test_whole_trace_matches_the_single_heap_loop(name):
    run, kinds, entries, digest = TRACE_DIGESTS[name]
    trace = run().trace
    assert trace.dropped == 0 and len(trace) == entries
    assert kinds <= {entry.kind for entry in trace.entries}
    assert _trace_digest(trace) == digest
