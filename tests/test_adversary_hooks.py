"""An installed adversary is asked only the questions its scenario can answer.

The kernel copies the adversary's capability flags (``defers_events``,
``faults_links``) at install time and consults ``defer`` / ``deliveries``
only under them.  These tests count the consultations the way
``bench/spans.py`` does -- by wrapping the hook methods in place on the
engine classes -- over every library and adaptive scenario, and check that a
skipped hook changes nothing a run reports.
"""

import pytest

from repro.adversary import build_scenario, scenario_names
from repro.adversary.adaptive import adaptive_scenario_names, build_adaptive_scenario
from repro.adversary.faults import (
    CrashRecovery,
    DelayPivotal,
    LinkFault,
    MessageCorruption,
    MessageDuplication,
    MessageOmission,
    Outage,
    PartitionWindow,
    ProcessSlowdown,
    SplitRounds,
    TargetCoin,
)
from repro.adversary.scenario import Adversary, Scenario
from repro.cluster.topology import ClusterTopology
from repro.core.base import PhaseMessage
from repro.harness.aggregate import RunSummary
from repro.harness.config import ExperimentConfig
from repro.harness.runner import prepare_consensus, run_consensus
from repro.network.delays import ConstantDelay
from repro.network.transport import Network
from repro.sim.config import SimConfig
from repro.sim.kernel import SimulationKernel
from repro.sim.rng import RandomSource

TOPOLOGY = ClusterTopology.even_split(6, 3)
CAPPED = SimConfig(max_rounds=25, max_time=5e4)
INTENSITIES = (0.0, 0.1, 0.3)

CASES = [
    pytest.param(build_scenario(name, TOPOLOGY.n, intensity), id=f"{name}@{intensity}")
    for name in scenario_names()
    for intensity in INTENSITIES
] + [
    pytest.param(
        build_adaptive_scenario(name, TOPOLOGY.n, intensity), id=f"adaptive:{name}@{intensity}"
    )
    for name in adaptive_scenario_names()
    for intensity in INTENSITIES
]


def _config(scenario, algorithm="hybrid-local-coin", seed=3, sim=CAPPED):
    return ExperimentConfig(
        topology=TOPOLOGY,
        algorithm=algorithm,
        proposals="split",
        seed=seed,
        sim=sim,
        scenario=scenario,
    )


def _summary(result):
    return RunSummary.from_result(result, 0, 0.0)


def _can_defer(scenario):
    return any(
        isinstance(fault, (ProcessSlowdown, DelayPivotal, TargetCoin, SplitRounds))
        for fault in scenario.faults
    )


def _can_fault_links(scenario):
    return any(isinstance(fault, (LinkFault, PartitionWindow)) for fault in scenario.faults)


@pytest.fixture
def hook_calls(monkeypatch):
    """Count the kernel's ``defer`` / ``deliveries`` consultations, in place."""
    calls = {"defer": 0, "deliveries": 0}

    def count(hook):
        original = getattr(Adversary, hook)

        def wrapper(self, *args):
            calls[hook] += 1
            return original(self, *args)

        monkeypatch.setattr(Adversary, hook, wrapper)

    count("defer")
    count("deliveries")
    return calls


@pytest.mark.parametrize("scenario", CASES)
def test_hooks_are_consulted_exactly_where_the_scenario_can_fire_them(scenario, hook_calls):
    config = _config(scenario)
    unwrapped = _summary(run_consensus(config))

    defers, faults_links = _can_defer(scenario), _can_fault_links(scenario)
    hook_calls.update(defer=0, deliveries=0)
    result = run_consensus(config)

    assert _summary(result) == unwrapped
    metrics = result.metrics
    if defers:
        # Every dispatched event was offered, deferred ones more than once.
        assert hook_calls["defer"] >= metrics.events_processed
    else:
        assert hook_calls["defer"] == 0
    assert hook_calls["deliveries"] == (metrics.messages_sent if faults_links else 0)


#: Link faults that fire on every cross message: (fault, omitted, duplicated, corrupted).
BROADCAST_FAULTS = [
    pytest.param(MessageOmission(probability=1.0), 1, 0, 0, id="omission"),
    pytest.param(MessageDuplication(probability=1.0, copies=2), 0, 2, 0, id="duplication"),
    pytest.param(MessageCorruption(probability=1.0, authenticated=False), 0, 0, 1, id="corruption"),
]


@pytest.mark.parametrize("fault, omitted, duplicated, corrupted", BROADCAST_FAULTS)
def test_link_faults_fire_per_destination_inside_a_broadcast(
    fault, omitted, duplicated, corrupted, hook_calls
):
    n = 5
    rng = RandomSource(0)
    kernel = SimulationKernel(rng=rng, config=SimConfig(max_time=1e4))
    network = Network(n, ConstantDelay(1.0), rng)
    kernel.attach_network(network)
    sent = PhaseMessage(tag="t", round_number=1, phase=1, est=0)

    def sender(ctx):
        yield from ctx.broadcast(sent)
        return "sent"

    def quiet(ctx):
        yield from ctx.local_step(5.0)
        return [message.payload.est for message in kernel.process(ctx.pid).mailbox]

    kernel.add_process(0, sender)
    for pid in range(1, n):
        kernel.add_process(pid, quiet)
    kernel.install_adversary(Adversary(Scenario("every-link", (fault,)), rng.stream("adversary")))
    result = kernel.run()

    cross = n - 1  # self-addressed messages are exempt from link faults
    stats = network.stats
    # One broadcast, one effect -- and still one consultation per destination.
    assert hook_calls["deliveries"] == stats.messages_sent == n
    assert kernel.process(0).stats.messages_sent == n
    assert stats.messages_omitted == omitted * cross
    assert stats.messages_duplicated == duplicated * cross
    assert stats.messages_corrupted == corrupted * cross
    copies = 0 if omitted else 1 + duplicated
    assert stats.messages_delivered == 1 + copies * cross
    flipped = 1 if corrupted else 0
    assert all(result.decisions[pid] == [flipped] * copies for pid in range(1, n))
    assert kernel.process(0).mailbox[0].payload is sent  # the self-send is untouched


def test_flags_follow_the_buckets():
    rng = None  # never drawn from at construction
    assert not Adversary(Scenario("empty", ()), rng).defers_events
    assert not Adversary(Scenario("empty", ()), rng).faults_links
    outage = Scenario("outage", (CrashRecovery((Outage(0, 1.0, 2.0),)),))
    assert not Adversary(outage, rng).defers_events
    assert not Adversary(outage, rng).faults_links
    slow = Adversary(Scenario("slow", (ProcessSlowdown(pids=(0,), extra_delay=1.0),)), rng)
    assert slow.defers_events and not slow.faults_links
    lossy = Adversary(Scenario("lossy", (MessageOmission(probability=0.1),)), rng)
    assert lossy.faults_links and not lossy.defers_events
    tamper = Adversary(build_adaptive_scenario("byzantine-tamper", 6, 0.3), rng)
    assert tamper.corrupts and tamper.faults_links and not tamper.defers_events
    for name in ("delay-pivotal", "target-coin", "split-rounds"):
        strategy = Adversary(build_adaptive_scenario(name, 6, 0.3), rng)
        assert strategy.defers_events and not strategy.faults_links


# ------------------------------------------------- hoisted flags vs forced on
# Outages make the recover replay steps, and a slowdown pushes pid 0's very
# first step into one: every route into the loop's one send site is taken.
_OUTAGES = CrashRecovery((Outage(0, 1.0, 6.0), Outage(1, 1.5, 4.0)))
FLAG_SCENARIOS = [
    pytest.param(Scenario("crash-recovery", (_OUTAGES,)), False, False, id="outages"),
    pytest.param(
        Scenario("crash-recovery+lossy-links", (_OUTAGES, MessageOmission(probability=0.2))),
        False,
        True,
        id="outages+lossy",
    ),
    pytest.param(build_scenario("slow-minority", TOPOLOGY.n, 0.3), True, False, id="slow-minority"),
    pytest.param(
        Scenario(
            "late-start-into-outage",
            (ProcessSlowdown(pids=(0,), extra_delay=2.0), _OUTAGES),
        ),
        True,
        False,
        id="slow-start+outages",
    ),
]


@pytest.mark.parametrize("algorithm", ["ben-or", "hybrid-local-coin"])
@pytest.mark.parametrize("scenario, defers, faults_links", FLAG_SCENARIOS)
def test_skipped_hooks_match_a_kernel_with_both_flags_forced_on(
    scenario, defers, faults_links, algorithm, hook_calls
):
    config = _config(
        scenario,
        algorithm=algorithm,
        seed=11,
        sim=SimConfig(max_rounds=25, max_time=5e4, trace=True),
    )

    def run(force):
        hook_calls.update(defer=0, deliveries=0)
        prepared = prepare_consensus(config)
        kernel = prepared.kernel
        assert (kernel._adversary_defers, kernel._adversary_faults_links) == (defers, faults_links)
        if force:
            kernel._adversary_defers = kernel._adversary_faults_links = True
        result = prepared.finalize(kernel.run(), 0.0)
        trace = [(e.time, e.kind, e.pid, e.detail) for e in kernel.trace.entries]
        return _summary(result), trace, result.metrics.messages_sent, hook_calls["deliveries"]

    hoisted, hoisted_trace, sent, hoisted_routed = run(force=False)
    forced, forced_trace, forced_sent, forced_routed = run(force=True)

    assert hoisted == forced
    assert hoisted_trace == forced_trace
    # Every send is routed by the flag -- first steps too (ben-or's is a send).
    assert sent == forced_sent == forced_routed > 0
    assert hoisted_routed == (sent if faults_links else 0)
    if any(isinstance(fault, CrashRecovery) for fault in scenario.faults):
        replayed = [detail for _, kind, _, detail in hoisted_trace if kind == "recover"]
        assert any(not detail.startswith("replaying 0 ") for detail in replayed)
    if scenario.name == "late-start-into-outage":
        # pid 0's start was dispatched into the outage, buffered, and replayed.
        starts = [
            time
            for time, kind, pid, detail in hoisted_trace
            if kind == "event" and pid == 0 and detail.startswith("ProcessStart")
        ]
        assert len(starts) == 2 and 1.0 <= starts[0] < 6.0 <= starts[1]
