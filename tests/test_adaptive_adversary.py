"""Adaptive adversary strategies: primitives, engine semantics, determinism.

Four layers, mirroring the subsystem:

* the strategy primitives (``DelayPivotal``, ``TargetCoin``, ``SplitRounds``)
  are plain frozen values -- validation, pickling, stable reprs;
* the authentication model -- ``MessageCorruption``'s liveness truth table
  and ``scan_mailbox`` dropping tampered-but-authenticated payloads while
  believing forged ones (which demonstrably breaks the protocol);
* the strategies inside :class:`Adversary` -- unit tests against hand-built
  kernel state proving delay-pivotal defers exactly the quorum-completing
  delivery (and respects its deferral budget), plus end-to-end runs whose
  ``deferral_log`` shows the strategies actually intervene;
* e10 harness integration -- adaptive sweeps must merge bit-identically
  across shard counts and execution modes, exactly like e9's declarative
  ones (the adaptive decisions draw no randomness, so this is structural).
"""

import pickle
import random

import pytest

from tests.helpers import make_message

from repro.adversary.adaptive import adaptive_scenario_names, build_adaptive_scenario
from repro.adversary.faults import (
    DelayPivotal,
    MessageCorruption,
    MessageOmission,
    SplitRounds,
    TamperedPayload,
    TargetCoin,
    mutate_payload,
)
from repro.adversary.scenario import Adversary, Scenario
from repro.cluster.topology import ClusterTopology
from repro.core.base import BOT, PhaseMessage, ProcessEnvironment, ProtocolInvariantError
from repro.core.pattern import scan_mailbox
from repro.experiments import e10_adaptive
from repro.experiments.common import default_seeds, run_planned
from repro.harness.config import ExperimentConfig
from repro.harness.distributed import ShardSpec, merge_shards, run_plan, run_shard
from repro.harness.runner import prepare_consensus
from repro.sim.config import SimConfig
from repro.sim.events import EventKind
from repro.sim.process import ProcessState


# -------------------------------------------------------------- the primitives
def test_adaptive_primitives_pickle_hash_and_repr():
    primitives = [
        DelayPivotal(extra_delay=3.0, max_deferrals=4),
        TargetCoin(mode="delay", extra_delay=2.5),
        TargetCoin(mode="omit"),
        SplitRounds(groups=((0, 1), (2, 3)), extra_delay=1.5),
    ]
    for fault in primitives:
        clone = pickle.loads(pickle.dumps(fault))
        assert clone == fault
        assert hash(clone) == hash(fault)
        assert repr(clone) == repr(fault)
        assert type(fault).__name__ in repr(fault)
    assert set(type(f) for f in primitives) == {DelayPivotal, TargetCoin, SplitRounds}


def test_adaptive_primitives_are_valid_scenario_members():
    scenario = Scenario("adaptive", (DelayPivotal(), TargetCoin(), MessageOmission(probability=0.1)))
    assert len(scenario.faults) == 3


def test_strategy_validation_refuses_bad_values():
    with pytest.raises(ValueError, match="extra_delay"):
        DelayPivotal(extra_delay=0.0)
    with pytest.raises(ValueError, match="max_deferrals"):
        DelayPivotal(max_deferrals=0)
    with pytest.raises(ValueError, match="mode"):
        TargetCoin(mode="corrupt")
    with pytest.raises(ValueError, match="window"):
        DelayPivotal(start=5.0, end=5.0)


def test_split_rounds_validates_groups():
    with pytest.raises(ValueError, match="two groups"):
        SplitRounds(groups=((0, 1, 2),))
    with pytest.raises(ValueError, match="disjoint"):
        SplitRounds(groups=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        SplitRounds(groups=((0, 1), ()))
    split = SplitRounds(groups=((1, 0), (3, 2)))
    assert split.groups == ((0, 1), (2, 3))  # normalised sorted tuples
    assert split.touched_pids() == (0, 1, 2, 3)


def test_strategy_liveness_flags():
    assert DelayPivotal().liveness_preserving
    assert SplitRounds(groups=((0,), (1,))).liveness_preserving
    assert TargetCoin(mode="delay").liveness_preserving
    assert not TargetCoin(mode="omit").liveness_preserving


# ------------------------------------------------- corruption truth table (fix)
@pytest.mark.parametrize(
    "probability, authenticated, preserving",
    [
        (0.0, True, True),
        (0.0, False, True),
        (0.3, True, False),  # tampered+authenticated = dropped = omission-like
        (0.3, False, False),
        (1.0, True, False),
    ],
)
def test_corruption_liveness_truth_table(probability, authenticated, preserving):
    fault = MessageCorruption(probability=probability, authenticated=authenticated)
    assert fault.liveness_preserving is preserving
    scenario = Scenario("tamper", (fault,))
    assert scenario.liveness_preserving is preserving


# --------------------------------------------------------- authentication model
TOPO3 = ClusterTopology.even_split(3, 3)


def _env(pid=0):
    return ProcessEnvironment(pid=pid, proposal=0, topology=TOPO3)


def _phase_msg(sender, est, r=1, ph=1):
    return make_message(sender, PhaseMessage(tag="t", round_number=r, phase=ph, est=est))


def test_scan_mailbox_drops_tampered_payloads():
    good = _phase_msg(0, est=1)
    tampered = make_message(1, TamperedPayload(original=good.payload, mutated=mutate_payload(good.payload)))
    outcome = scan_mailbox([good, tampered], _env(), "t", 1, 1)
    # The signature check fails: only the untampered sender is heard.
    assert outcome.heard == frozenset({0})


def test_scan_mailbox_believes_forged_payloads():
    forged = mutate_payload(_phase_msg(0, est=0).payload)
    assert forged.est == 1  # the bit was flipped in transit
    outcome = scan_mailbox([make_message(0, forged)], _env(), "t", 1, 1)
    assert outcome.heard == frozenset({0})
    assert 1 in outcome.values_received


def test_mutate_payload_flips_bits_and_ignores_bot():
    assert mutate_payload(PhaseMessage(tag="t", round_number=1, phase=1, est=0)).est == 1
    bottom = PhaseMessage(tag="t", round_number=1, phase=1, est=BOT)
    assert mutate_payload(bottom) is bottom
    assert mutate_payload("not-a-dataclass") == "not-a-dataclass"


# ------------------------------------------------------- engine unit semantics
_DELIVERY = int(EventKind.MESSAGE_DELIVERY)


class _FakeProcess:
    def __init__(self, mailbox, predicate, state=ProcessState.BLOCKED, paused=False):
        self.mailbox = mailbox
        self.wait_predicate = predicate
        self.state = state
        self.paused = paused


class _FakeKernel:
    """Just enough kernel for Adversary.defer(): pid -> process."""

    def __init__(self, processes):
        self._processes = processes

    def process(self, pid):
        return self._processes[pid]


def _adaptive(scenario, kernel):
    adversary = Adversary(scenario, random.Random(0))
    adversary._kernel = kernel
    return adversary


def _quorum_of_two(mailbox):
    return "quorum" if len(mailbox) >= 2 else None


def _deliver(adversary, dest, message, key, now):
    """Offer one delivery to ``defer`` as the kernel does: flat fields plus its key."""
    return adversary.defer(_DELIVERY, dest, message, key, now)


def test_delay_pivotal_defers_exactly_the_quorum_completing_delivery():
    held = _phase_msg(0, est=1)
    receiver = _FakeProcess(mailbox=[held], predicate=_quorum_of_two)
    adversary = _adaptive(
        Scenario("t", (DelayPivotal(extra_delay=3.0, max_deferrals=8),)),
        _FakeKernel({1: receiver}),
    )
    assert _deliver(adversary, 1, _phase_msg(2, est=1), key=1, now=0.0) == 3.0
    assert adversary.deferral_log == [(0.0, "delay-pivotal", "defer", 2, 1)]

    # Once the quorum is already satisfied the same delivery is not pivotal.
    receiver.mailbox = [held, _phase_msg(3, est=0)]
    assert _deliver(adversary, 1, _phase_msg(2, est=1), key=2, now=0.0) == 0.0

    # Nor is any delivery to a non-blocked or paused receiver.
    receiver.mailbox = [held]
    receiver.state = ProcessState.READY
    assert _deliver(adversary, 1, _phase_msg(2, est=1), key=3, now=0.0) == 0.0
    receiver.state = ProcessState.BLOCKED
    receiver.paused = True
    assert _deliver(adversary, 1, _phase_msg(2, est=1), key=4, now=0.0) == 0.0


def test_delay_pivotal_releases_after_its_deferral_budget():
    receiver = _FakeProcess(mailbox=[_phase_msg(0, est=1)], predicate=_quorum_of_two)
    adversary = _adaptive(
        Scenario("t", (DelayPivotal(extra_delay=2.0, max_deferrals=2),)),
        _FakeKernel({1: receiver}),
    )
    message = _phase_msg(2, est=1)
    assert _deliver(adversary, 1, message, key=7, now=0.0) == 2.0
    assert _deliver(adversary, 1, message, key=7, now=2.0) == 2.0
    # Budget exhausted: the delivery is released, so liveness is preserved.
    assert _deliver(adversary, 1, message, key=7, now=4.0) == 0.0
    assert [entry[2] for entry in adversary.deferral_log] == ["defer", "defer"]


def test_a_delivery_offered_again_under_its_key_counts_once():
    """Re-offers share the first offer's key, so the estimate tally sees one delivery."""
    adversary = _adaptive(Scenario("t", (TargetCoin(mode="delay", extra_delay=2.5),)), _FakeKernel({}))
    # est=0 is the unique leader after its first offer, and on every re-offer.
    for now in (0.0, 2.5, 5.0):
        assert _deliver(adversary, 1, _phase_msg(0, est=0), key=1, now=now) == 2.5
    # One est=1 delivery ties the tally: no unique leader.
    dissent = _phase_msg(1, est=1)
    assert _deliver(adversary, 2, dissent, key=2, now=6.0) == 0.0
    # The same message under a fresh key is a second delivery: est=1 now leads
    # 2:1, which it would not (2:3) had every offer of key 1 been counted.
    assert _deliver(adversary, 3, dissent, key=3, now=7.0) == 2.5
    assert adversary._est_counts == {("t", 1, 1): {0: 1, 1: 2}}


def test_target_coin_attacks_only_the_unique_leading_estimate():
    adversary = _adaptive(Scenario("t", (TargetCoin(mode="omit"),)), _FakeKernel({}))
    # One observation makes est=0 the unique leader: omitted at dispatch.
    assert _deliver(adversary, 1, _phase_msg(0, est=0), key=1, now=0.0) == float("inf")
    assert adversary.deferral_log[-1] == (0.0, "target-coin", "omit", 0, 1)
    # est=1 ties the counts: no unique leader, nothing is faulted.
    assert _deliver(adversary, 2, _phase_msg(0, est=1), key=2, now=1.0) == 0.0


def test_split_rounds_defers_leading_to_lagging_crossings_only():
    split = SplitRounds(groups=((0, 1), (2, 3)), extra_delay=4.0)
    adversary = _adaptive(Scenario("t", (split,)), _FakeKernel({}))
    # Group 0 shows round 2 via an intra-group delivery (observed, not faulted
    # across groups since the payload carries no estimate leader yet).
    assert _deliver(adversary, 1, _phase_msg(0, est=BOT, r=2), key=1, now=0.0) == 0.0
    # Ahead -> lagging crossing is deferred; the reverse direction is not.
    assert _deliver(adversary, 2, _phase_msg(0, est=BOT, r=2), key=2, now=1.0) == 4.0
    assert adversary.deferral_log[-1] == (1.0, "split-rounds", "defer", 0, 2)
    assert _deliver(adversary, 0, _phase_msg(2, est=BOT, r=1), key=3, now=2.0) == 0.0


# --------------------------------------------------------- end-to-end behaviour
def _run(scenario, seed=1, algorithm="ben-or", n=4, m=2):
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(n, m),
        algorithm=algorithm,
        proposals="split",
        scenario=scenario,
        seed=seed,
        sim=SimConfig(max_rounds=30, max_time=5e4),
    )
    prepared = prepare_consensus(config)
    sim_result = prepared.kernel.run()
    return prepared.finalize(sim_result, 0.0), prepared.kernel.adversary


def test_delay_pivotal_intervenes_without_costing_safety_or_liveness():
    baseline, _ = _run(None)
    attacked, adversary = _run(build_adaptive_scenario("delay-pivotal", n=4, intensity=0.5))
    log = adversary.deferral_log
    assert log, "delay-pivotal never found a pivotal delivery to defer"
    assert {entry[1] for entry in log} == {"delay-pivotal"}
    assert {entry[2] for entry in log} == {"defer"}  # delays only, no omissions
    assert attacked.metrics.messages_omitted == 0
    assert attacked.report.safety_ok and attacked.terminated
    assert attacked.metrics.decision_time_max >= baseline.metrics.decision_time_max


@pytest.mark.parametrize(
    "algorithm, n, m, seed, intensity, pinned",
    [
        ("ben-or", 4, 2, 1, 0.5, (235, 112, 3, 1, "0x1.0a6fe897525e6p+6", 192)),
        ("hybrid-local-coin", 6, 3, 2, 1.0, (391, 180, 2, 0, "0x1.457542a5e3872p+7", 768)),
        ("mm-local-coin", 6, 3, 4, 0.5, (1266, 468, 6, 0, "0x1.089c5eed46250p+7", 864)),
    ],
)
def test_delay_pivotal_runs_are_pinned(algorithm, n, m, seed, intensity, pinned):
    """The probe sees a pure predicate: runs match the full-scan era bit for bit.

    ``_is_pivotal`` evaluates ``msg_exchange``'s memoising wait predicate on
    the live mailbox and on ``list(mailbox) + [message]``.  The values were
    recorded when the predicate was a full ``scan_mailbox`` per call; a probe
    that disturbed the memo, or a memo that answered a probe, would move them.
    """
    scenario = build_adaptive_scenario("delay-pivotal", n=n, intensity=intensity)
    result, adversary = _run(scenario, seed=seed, algorithm=algorithm, n=n, m=m)
    metrics = result.metrics
    assert result.report.safety_ok and result.terminated
    assert (
        metrics.events_processed,
        metrics.messages_sent,
        metrics.rounds_max,
        metrics.decided_value,
        metrics.decision_time_max.hex(),
        len(adversary.deferral_log),
    ) == pinned


def test_authenticated_tampering_keeps_safety_and_counts_corruptions():
    result, _ = _run(
        Scenario("tamper", (MessageCorruption(probability=0.6, authenticated=True),)), seed=0
    )
    assert result.report.safety_ok
    assert result.metrics.messages_corrupted > 0


def test_forged_payloads_break_the_protocol_without_authentication():
    """Authentication is load-bearing: believed mutations void the model."""
    with pytest.raises(
        ProtocolInvariantError,
        match=r"^ben-or: process \d+ received the distinct championed values \[0, 1\] "
        r"in phase 2 of round \d+, violating weak agreement WA1$",
    ):
        _run(Scenario("forge", (MessageCorruption(probability=0.6, authenticated=False),)), seed=0)


# ------------------------------------------------------------ scenario registry
def test_adaptive_registry_lists_sorted_names():
    names = adaptive_scenario_names()
    assert names == sorted(names)
    assert {"delay-pivotal", "target-coin", "target-coin-omit", "split-rounds", "byzantine-tamper"} <= set(names)


def test_adaptive_registry_refuses_unknown_names_and_names_each_entry():
    with pytest.raises(ValueError, match="unknown adaptive scenario"):
        build_adaptive_scenario("no-such-strategy", n=4)
    for name in adaptive_scenario_names():
        assert build_adaptive_scenario(name, n=4, intensity=0.5).name == name


def test_adaptive_builders_validate_parameters():
    with pytest.raises(ValueError, match="at least 2"):
        build_adaptive_scenario("delay-pivotal", n=1)
    with pytest.raises(ValueError, match="intensity"):
        build_adaptive_scenario("delay-pivotal", n=4, intensity=1.5)
    for name in adaptive_scenario_names():
        assert build_adaptive_scenario(name, n=4, intensity=0.0).faults == ()
        scenario = build_adaptive_scenario(name, n=5, intensity=0.7)
        assert pickle.loads(pickle.dumps(scenario)) == scenario


# ----------------------------------------------- e10 distributed bit-identity
SEEDS = default_seeds(2)
E10_KWARGS = dict(
    seeds=SEEDS,
    scenarios=("delay-pivotal", "split-rounds", "byzantine-tamper"),
    intensities=(0.5,),
    n=4,
    m=2,
    round_cap=20,
    algorithms=("ben-or",),
)


def _shard_and_merge(plan, out_dir, shard_count):
    for index in range(1, shard_count + 1):
        run_shard(plan, ShardSpec(index, shard_count), out_dir, max_workers=1)
    return merge_shards(out_dir, plan)


@pytest.mark.parametrize("shard_count", [1, 3, 7])
def test_e10_shard_merge_is_bit_identical_to_single_host(tmp_path, shard_count):
    single = run_plan(e10_adaptive.plan(**E10_KWARGS), max_workers=1)
    merged = _shard_and_merge(e10_adaptive.plan(**E10_KWARGS), tmp_path, shard_count)
    assert set(merged.aggregates) == set(single)
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate  # dataclass eq: bit-for-bit


@pytest.mark.parametrize("max_workers", [2, 3])
def test_e10_on_caller_plus_helpers_is_bit_identical_to_serial(max_workers):
    serial = run_plan(e10_adaptive.plan(**E10_KWARGS), max_workers=1)
    pooled = run_plan(e10_adaptive.plan(**E10_KWARGS), max_workers=max_workers)
    assert set(serial) == set(pooled)
    for label, aggregate in serial.items():
        assert pooled[label] == aggregate


def test_e10_sharded_report_reproduces_driver_report(tmp_path):
    direct = run_planned(e10_adaptive.plan(**E10_KWARGS), e10_adaptive.build_report, max_workers=1)
    merged = _shard_and_merge(e10_adaptive.plan(**E10_KWARGS), tmp_path, 3)
    report = e10_adaptive.build_report(merged.plan, merged.aggregates)
    assert report.format(precision=12) == direct.format(precision=12)
    assert report.passed and direct.passed


def test_adaptive_scenarios_are_part_of_the_plan_fingerprint():
    base = e10_adaptive.plan(**E10_KWARGS)
    assert base.fingerprint() == e10_adaptive.plan(**E10_KWARGS).fingerprint()
    other = dict(E10_KWARGS, scenarios=("delay-pivotal", "split-rounds", "target-coin"))
    assert base.fingerprint() != e10_adaptive.plan(**other).fingerprint()
    hotter = dict(E10_KWARGS, intensities=(0.7,))
    assert base.fingerprint() != e10_adaptive.plan(**hotter).fingerprint()
    shuffled = dict(E10_KWARGS, scenarios=("byzantine-tamper", "delay-pivotal", "split-rounds"))
    assert base.fingerprint() == e10_adaptive.plan(**shuffled).fingerprint()
