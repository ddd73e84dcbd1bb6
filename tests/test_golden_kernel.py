"""Bit-identity of the refactored kernel against the pre-refactor fixture.

``tests/golden/kernel_summaries.json`` froze every ``RunSummary`` of the
small e1-e9 sweep plans (``tests.helpers.golden_plans``) as produced by the
PRE-refactor kernel -- dataclass queue entries, per-call delay sampling, no
``__slots__``.  This test recomputes the same runs on the current kernel and
asserts every summary matches exactly: floats are compared through their
``float.hex()`` serialisation, so "close" is not good enough.  (The e11 and
then the e10 entries were appended later, each generated against a green
current kernel, to pin the empirical-delay sampling path and the adaptive
adversary the same way.)

The fixture spans every kernel-exercising experiment, including the
adversarial scenarios (e9), the adaptive strategies (e10), the
empirical-delay resilience runs (e11) and the shard/steal merge inputs
(per-run summaries + priorities are exactly what the distributed
coordinator merges), so a green run here is the
acceptance evidence that the hot-path refactor changed no observable
behaviour.  Regenerate the fixture only for a deliberate, understood
behaviour change: ``python scripts/gen_golden_summaries.py``.

The fixture holds summaries only, so whole traces are pinned as well
(``TRACE_DIGESTS``): every entry's time, kind, pid, detail and data, hashed.
The three ``e9-*``/``flood`` literals are what the single-heap loop of commit
``10673c5`` printed -- before messages in flight moved to a heap of their own
and a broadcast became one effect -- so event order, every
``send``/``event``/``omit`` record and every timestamp are shown equal, not
inferred from the totals.  The four per-algorithm literals were taken before
the six copied round loops became bindings of two shared round bodies.
The ``e10-*`` literals, and the ``deferral_log`` tallies in
``INTERVENTIONS``, were taken while the adaptive strategies still ran in a
subclass of the adversary engine.
"""

import hashlib
import json
import pathlib
import re
from collections import Counter

import pytest

from repro.adversary import DelayPivotal, ProcessSlowdown, Scenario, build_scenario
from repro.adversary.adaptive import build_adaptive_scenario
from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import prepare_consensus
from repro.network.transport import Network
from repro.sim.config import SimConfig
from repro.sim.kernel import SimulationKernel
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


@pytest.mark.parametrize("experiment", [f"e{i}" for i in range(1, 12)])
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
def _traced_kernel(scenario, seed, algorithm):
    """One traced run at n=6, m=3 under ``scenario`` (``None``: fault-free)."""
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm=algorithm,
        proposals="split",
        seed=seed,
        scenario=scenario,
        sim=SimConfig(max_rounds=30, max_time=5e4, trace=True),
    )
    kernel = prepare_consensus(config).kernel
    kernel.run()
    return kernel


def _e9_kernel(scenario, seed, algorithm="hybrid-local-coin"):
    """One traced run of the e9 plan's configuration under ``scenario``@0.3.

    ``scenario=None`` runs the same configuration fault-free.
    """
    if scenario is not None:
        scenario = build_scenario(scenario, n=6, intensity=0.3)
    return _traced_kernel(scenario, seed, algorithm)


def _e10_kernel(scenario, algorithm):
    """One traced seed-1 run of the e10 configuration under ``scenario``@0.3."""
    return _traced_kernel(build_adaptive_scenario(scenario, n=6, intensity=0.3), 1, algorithm)


#: A slowdown and a strategy in one scenario: both halves of ``defer`` fire.
MIXED = Scenario(
    "slow-and-pivotal",
    (ProcessSlowdown(pids=(0,), extra_delay=1.5), DelayPivotal(extra_delay=1.5, max_deferrals=3)),
)


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


#: name -> (run, trace kinds it must exercise, entries, SHA-256).
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
    # One fault-free run of each other message-passing algorithm, pinned
    # before their rounds became bindings of the two shared round bodies.
    "ben-or": (
        lambda: _e9_kernel(None, seed=1, algorithm="ben-or"),
        {"send", "event", "round", "block", "decide"},
        1800,
        "e131632b251aab144d8c3748bfd930c5c8bd46d0eb9ba47e3a3b4aed10b4828b",
    ),
    "mm-local-coin": (
        lambda: _e9_kernel(None, seed=1, algorithm="mm-local-coin"),
        {"send", "event", "round", "sm-op", "block", "decide"},
        1788,
        "ab9c0a69e923cf1b6d99a38ca82a9440be672003b8d7141c28e0b3765744988b",
    ),
    "mp-common-coin": (
        lambda: _e9_kernel(None, seed=1, algorithm="mp-common-coin"),
        {"send", "event", "round", "block", "decide"},
        587,
        "8319908ebb65ac981f6891aaf61ce6c7e8d230663b64ce02f4e1a28667797678",
    ),
    "hybrid-common-coin": (
        lambda: _e9_kernel(None, seed=1, algorithm="hybrid-common-coin"),
        {"send", "event", "round", "sm-op", "block", "decide"},
        416,
        "dc4ba86a8758349ea46c64871fa1f36ada4a6adaf8a505e5aa717bff49e1724a",
    ),
    "flood-n16": (
        _flood_kernel,
        {"send", "event", "block", "decide"},
        1632,
        "146812225c07e6b2d9fbb913458f5f5b08e64bd438338a9dec060f4dafdebefc",
    ),
    # The adaptive strategies, each on the algorithm it bites hardest.
    "e10-delay-pivotal": (
        lambda: _e10_kernel("delay-pivotal", "hybrid-local-coin"),
        {"send", "event", "round", "sm-op", "block", "decide"},
        595,
        "3be2d04a9e3c90a5268e8fb843949b504cf477e1064c291930b9a7b9eebd1b94",
    ),
    "e10-split-rounds": (
        lambda: _e10_kernel("split-rounds", "ben-or"),
        {"send", "event", "round", "block", "decide"},
        1755,
        "ca50b8af7a0e0b0378f9756e24c078c8c179379d4e3de1b8bd28dd4e27561b4e",
    ),
    "e10-target-coin-omit": (
        lambda: _e10_kernel("target-coin-omit", "hybrid-local-coin"),
        {"send", "event", "round", "sm-op", "block", "omit"},
        174,
        "054b903d24af478ad8b4a38cb7996bc3fea2d89b625a8892e2cf8b658a30e233",
    ),
    # Authenticated corruption: 37 of the entries are ``corrupt`` records.
    "e10-byzantine-tamper": (
        lambda: _e10_kernel("byzantine-tamper", "hybrid-local-coin"),
        {"send", "event", "round", "sm-op", "corrupt", "block", "decide"},
        700,
        "a5a077ce79f59f9621da8bf383bf36958db19d3e7d0056f05f4fba2cc3ea2d93",
    ),
    "e10-slow-and-pivotal": (
        lambda: _traced_kernel(MIXED, 1, "hybrid-local-coin"),
        {"send", "event", "round", "sm-op", "block", "decide"},
        657,
        "963d22e3152bf630298f0e5579c4699501d65fefaf99dfde7102d34f79e8d5f8",
    ),
}

#: Trace name -> the actions in that run's ``adversary.deferral_log``.
INTERVENTIONS = {
    "e10-delay-pivotal": {"defer": 210},
    "e10-split-rounds": {"defer": 299},
    "e10-target-coin-omit": {"omit": 24},
    "e10-slow-and-pivotal": {"defer": 198},
}


def _set_reprs_sorted(detail):
    """``detail`` with every ``frozenset({...})`` written in sorted order.

    ``⊥`` hashes to the constant ``BOTTOM_HASH``, so a set repr already
    prints the same in every interpreter; the sort stays because the pinned
    literals were computed over sorted reprs.
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
    kernel = run()
    trace = kernel.trace
    assert trace.dropped == 0 and len(trace) == entries
    assert kinds <= {entry.kind for entry in trace.entries}
    assert _trace_digest(trace) == digest
    if name in INTERVENTIONS:
        log = kernel.adversary.deferral_log
        assert Counter(action for _, _, action, _, _ in log) == INTERVENTIONS[name]
