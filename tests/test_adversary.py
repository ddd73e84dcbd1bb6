"""The fault-injection adversary subsystem: primitives, scenarios, kernel hooks.

Covers the declarative layer (validation, normalisation, picklability,
stable reprs), the runtime semantics of every fault primitive against small
hand-built simulations, determinism, the install-time pid validation, and
safety of the consensus algorithms under every library scenario.
"""

import math
import pickle
import random

import pytest

from repro.adversary import (
    Adversary,
    CrashRecovery,
    MessageDuplication,
    MessageOmission,
    MessageReordering,
    Outage,
    PartitionWindow,
    ProcessSlowdown,
    Scenario,
    build_scenario,
    scenario_names,
)
from repro.cluster.topology import ClusterTopology
from repro.harness.metrics import numeric_metric_values
from repro.harness.runner import ExperimentConfig, run_consensus, termination_expected
from repro.network.delays import ConstantDelay
from repro.network.transport import Network
from repro.sim.kernel import SimConfig, SimulationKernel
from repro.sim.rng import RandomSource


# ------------------------------------------------------------------ primitives
class TestPrimitiveValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            MessageOmission(probability=1.5)
        with pytest.raises(ValueError):
            MessageOmission(probability=-0.1)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            MessageOmission(start=-1.0)
        with pytest.raises(ValueError):
            MessageOmission(start=2.0, end=2.0)

    def test_pid_sets_are_normalised_sorted_tuples(self):
        fault = MessageOmission(probability=0.5, senders=[3, 1], receivers={2, 0})
        assert fault.senders == (1, 3)
        assert fault.receivers == (0, 2)
        with pytest.raises(ValueError):
            MessageOmission(senders=[1, 1])
        with pytest.raises(ValueError):
            MessageOmission(senders=[-1])

    def test_duplication_copies_and_reorder_inflation(self):
        with pytest.raises(ValueError):
            MessageDuplication(copies=0)
        with pytest.raises(ValueError):
            MessageReordering(inflation=1.0)

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="two groups"):
            PartitionWindow(groups=((0, 1),), end=5.0)
        with pytest.raises(ValueError, match="disjoint"):
            PartitionWindow(groups=((0, 1), (1, 2)), end=5.0)
        with pytest.raises(ValueError, match="mode"):
            PartitionWindow(groups=((0,), (1,)), end=5.0, mode="explode")
        with pytest.raises(ValueError, match="finite"):
            PartitionWindow(groups=((0,), (1,)), mode="heal")  # end=inf
        # A dropping partition may stay open forever.
        PartitionWindow(groups=((0,), (1,)), mode="drop")

    def test_partition_severs_only_cross_group_in_window(self):
        window = PartitionWindow(groups=((0, 1), (2, 3)), start=1.0, end=2.0)
        assert window.severs(0, 2, 1.5)
        assert window.severs(3, 1, 1.0)
        assert not window.severs(0, 1, 1.5)  # same group
        assert not window.severs(0, 4, 1.5)  # pid 4 in no group
        assert not window.severs(0, 2, 2.0)  # window closed (end exclusive)

    def test_slowdown_validation(self):
        with pytest.raises(ValueError):
            ProcessSlowdown(pids=())
        with pytest.raises(ValueError):
            ProcessSlowdown(pids=(0,), extra_delay=0.0)
        slow = ProcessSlowdown(pids=(2, 0), extra_delay=1.0, start=0.0, end=5.0)
        assert slow.pids == (0, 2)
        assert slow.defers(0, 4.9) and not slow.defers(0, 5.0) and not slow.defers(1, 1.0)

    def test_crash_recovery_validation(self):
        with pytest.raises(ValueError):
            CrashRecovery(())
        with pytest.raises(ValueError, match="finite"):
            CrashRecovery((Outage(0, 1.0, math.inf),))
        with pytest.raises(ValueError, match="overlapping"):
            CrashRecovery((Outage(0, 1.0, 3.0), Outage(0, 2.0, 4.0)))
        # Overlap across two schedules of one scenario is just as invalid.
        with pytest.raises(ValueError, match="overlapping"):
            Scenario(
                "nested-outages",
                (
                    CrashRecovery((Outage(0, 1.0, 5.0),)),
                    CrashRecovery((Outage(0, 3.0, 50.0),)),
                ),
            )
        # Tuples coerce to Outage, episodes sort deterministically.
        schedule = CrashRecovery(((1, 5.0, 6.0), (0, 1.0, 2.0)))
        assert schedule.outages == (Outage(0, 1.0, 2.0), Outage(1, 5.0, 6.0))
        assert schedule.touched_pids() == (0, 1)


class TestScenarioModel:
    def test_rejects_non_primitives(self):
        with pytest.raises(ValueError, match="fault primitive"):
            Scenario("bad", ("not-a-fault",))
        with pytest.raises(ValueError):
            Scenario("", ())

    def test_liveness_preservation_classification(self):
        assert Scenario("empty", ()).liveness_preserving
        assert Scenario("dup", (MessageDuplication(probability=0.5),)).liveness_preserving
        assert Scenario("slow", (ProcessSlowdown(pids=(0,)),)).liveness_preserving
        assert not Scenario("lossy", (MessageOmission(probability=0.1),)).liveness_preserving
        healing = PartitionWindow(groups=((0,), (1,)), end=5.0, mode="heal")
        dropping = PartitionWindow(groups=((0,), (1,)), end=5.0, mode="drop")
        assert Scenario("heal", (healing,)).liveness_preserving
        assert not Scenario("drop", (dropping,)).liveness_preserving

    def test_scenarios_are_picklable_with_stable_reprs(self):
        for name in scenario_names():
            scenario = build_scenario(name, n=6, intensity=0.3)
            clone = pickle.loads(pickle.dumps(scenario))
            assert clone == scenario
            assert repr(clone) == repr(scenario)
            assert repr(scenario) == repr(build_scenario(name, n=6, intensity=0.3))

    def test_subclassed_primitives_run_like_their_base(self):
        """A user subclass of a primitive must bucket (and fire) as its base."""

        class TargetedOmission(MessageOmission):
            pass

        scenario = Scenario("custom", (TargetedOmission(probability=1.0),))
        kernel, network = _two_process_kernel(scenario)
        result = kernel.run()
        assert 1 not in result.decisions
        assert network.stats.messages_omitted == 1

    def test_describe_names_fault_kinds(self):
        assert "fault-free" in Scenario("none", ()).describe()
        text = build_scenario("chaos", n=6, intensity=0.5).describe()
        assert "chaos" in text and "MessageOmission" in text


class TestLibrary:
    def test_unknown_name_and_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("no-such-thing", n=6)
        with pytest.raises(ValueError, match="intensity"):
            build_scenario("lossy-links", n=6, intensity=1.5)
        with pytest.raises(ValueError, match="at least 2"):
            build_scenario("lossy-links", n=1)

    def test_every_entry_builds_for_various_sizes(self):
        for name in scenario_names():
            for n in (2, 3, 6, 9):
                scenario = build_scenario(name, n=n, intensity=0.4)
                assert all(pid < n for pid in scenario.touched_pids())

    def test_zero_intensity_is_mild(self):
        for name in scenario_names():
            scenario = build_scenario(name, n=6, intensity=0.0)
            assert scenario.liveness_preserving, name


# ------------------------------------------------------------- kernel semantics
def _two_process_kernel(scenario=None, delay=1.0, seed=0):
    """A sender (pid 0) broadcasting once and a waiter (pid 1) kernel pair."""
    rng = RandomSource(seed)
    kernel = SimulationKernel(rng=rng, config=SimConfig(max_time=1e4))
    network = Network(2, ConstantDelay(delay), rng)
    kernel.attach_network(network)

    def sender(ctx):
        yield from ctx.broadcast("ping")
        return 1

    def waiter(ctx):
        message = yield from ctx.wait_until(
            lambda mailbox: next((m for m in mailbox if m.sender == 0), None)
        )
        return message.payload

    kernel.add_process(0, sender)
    kernel.add_process(1, waiter)
    if scenario is not None:
        kernel.install_adversary(Adversary(scenario, rng.stream("adversary")))
    return kernel, network


def test_total_omission_starves_the_waiter_but_not_self_delivery():
    scenario = Scenario("drop-all", (MessageOmission(probability=1.0),))
    kernel, network = _two_process_kernel(scenario)
    result = kernel.run()
    assert 0 in result.decisions and 1 not in result.decisions
    assert network.stats.messages_omitted == 1  # the cross message; self-send untouched
    assert network.stats.messages_delivered == 1


def test_duplication_delivers_extra_copies():
    scenario = Scenario("dup", (MessageDuplication(probability=1.0, copies=2),))
    kernel, network = _two_process_kernel(scenario)
    result = kernel.run()
    assert result.decisions[1] == "ping"
    assert network.stats.messages_duplicated == 2
    # 1 self-delivery + 1 original + 2 copies
    assert network.stats.messages_delivered == 4
    assert len(kernel.process(1).mailbox) == 3


def test_reordering_inflates_transit_time():
    plain_kernel, _ = _two_process_kernel()
    plain = plain_kernel.run()
    scenario = Scenario("reorder", (MessageReordering(probability=1.0, inflation=10.0),))
    slow_kernel, _ = _two_process_kernel(scenario)
    slow = slow_kernel.run()
    assert slow.decisions == plain.decisions
    assert slow.decision_times[1] >= plain.decision_times[1] + 8.0  # ~10x a 1.0 delay


def test_healing_partition_delays_until_heal_time():
    window = PartitionWindow(groups=((0,), (1,)), start=0.0, end=7.0, mode="heal")
    kernel, network = _two_process_kernel(Scenario("split", (window,)))
    result = kernel.run()
    assert result.decisions[1] == "ping"
    assert result.decision_times[1] >= 8.0  # heal at 7.0 + 1.0 transit
    assert network.stats.messages_omitted == 0


def test_dropping_partition_loses_the_message():
    window = PartitionWindow(groups=((0,), (1,)), start=0.0, end=7.0, mode="drop")
    kernel, network = _two_process_kernel(Scenario("split", (window,)))
    result = kernel.run()
    assert 1 not in result.decisions
    assert network.stats.messages_omitted == 1


def test_duplicates_cannot_cross_a_healing_partition():
    """Every copy of a held message waits for the heal, not just the original.

    The waiter decides on the *first* message from the sender, so a duplicate
    sneaking across the severed window would show up as an early decision.
    """
    window = PartitionWindow(groups=((0,), (1,)), start=0.0, end=7.0, mode="heal")
    scenario = Scenario(
        "split-dup", (window, MessageDuplication(probability=1.0, copies=2))
    )
    kernel, network = _two_process_kernel(scenario)
    result = kernel.run()
    assert network.stats.messages_duplicated == 2
    assert result.decisions[1] == "ping"
    assert result.decision_times[1] >= 7.0  # no copy arrived before the heal


def test_slowdown_never_defers_pause_recover_or_crash_events():
    """Control events are exempt from slowdowns.

    A slowdown window ending between an outage's down and up times would
    otherwise defer the pause past its matching recover, stranding the
    process paused (with a dead backlog) for the rest of the run; deferring
    a crash would let the slowdown rewrite the failure pattern.
    """
    scenario = Scenario(
        "slow-nap",
        (
            ProcessSlowdown(pids=(1,), extra_delay=5.0, start=0.0, end=1.5),
            CrashRecovery((Outage(pid=1, down_at=1.0, up_at=2.0),)),
        ),
    )
    kernel, _ = _two_process_kernel(scenario)
    result = kernel.run()
    proc = kernel.process(1)
    assert not proc.paused and not proc.paused_backlog
    assert result.decisions[1] == "ping"

    crash_scenario = Scenario(
        "slow-crash", (ProcessSlowdown(pids=(1,), extra_delay=50.0, start=0.0, end=1.5),)
    )
    crash_kernel, _ = _two_process_kernel(crash_scenario)
    crash_kernel.schedule_crash(1, 1.0)
    crash_result = crash_kernel.run()
    assert 1 in crash_result.crashed
    assert crash_kernel.process(1).crash_time == pytest.approx(1.0)


def test_deferred_start_cannot_execute_inside_an_outage():
    """A slowdown-deferred ProcessStart landing mid-outage waits for recovery."""
    scenario = Scenario(
        "late-start",
        (
            ProcessSlowdown(pids=(0,), extra_delay=5.0, start=0.0, end=0.4),
            CrashRecovery((Outage(pid=0, down_at=0.5, up_at=20.0),)),
        ),
    )
    kernel, _ = _two_process_kernel(scenario)
    result = kernel.run()
    # The sender's start was deferred to t=5, inside its [0.5, 20) outage:
    # it must not have executed (and broadcast) until after recovery.
    assert result.decisions[0] == 1
    assert result.decision_times[0] >= 20.0
    assert result.decision_times[1] >= 20.0


def test_slowdown_defers_each_event_once():
    baseline_kernel, _ = _two_process_kernel()
    baseline = baseline_kernel.run()
    scenario = Scenario("slow", (ProcessSlowdown(pids=(1,), extra_delay=3.0),))
    slowed_kernel, _ = _two_process_kernel(scenario)
    slowed = slowed_kernel.run()
    assert slowed.decisions == baseline.decisions
    assert slowed.decision_times[1] > baseline.decision_times[1]
    assert slowed.decision_times[0] == pytest.approx(baseline.decision_times[0])


def test_crash_recovery_buffers_and_replays():
    outage = CrashRecovery((Outage(pid=1, down_at=0.5, up_at=9.0),))
    kernel, _ = _two_process_kernel(Scenario("nap", (outage,)))
    result = kernel.run()
    # The waiter was down when the message transited, but replays it on
    # recovery, decides, and still counts as correct.
    assert result.decisions[1] == "ping"
    assert result.decision_times[1] >= 9.0
    assert 1 in result.correct and not result.crashed


def test_outage_inside_a_broadcast_resumes_it_at_the_next_destination():
    """A pause backlogs the step, not the broadcast: the recover picks it up."""
    n = 6
    rng = RandomSource(0)
    kernel = SimulationKernel(
        rng=rng, config=SimConfig(max_time=1e4, scheduling_jitter=0.0, trace=True)
    )
    network = Network(n, ConstantDelay(1.0), rng)
    kernel.attach_network(network)

    def sender(ctx):
        yield from ctx.broadcast("ping")
        return "sent"

    def waiter(ctx):
        message = yield from ctx.wait_until(lambda mailbox: mailbox[0] if mailbox else None)
        return message.payload

    kernel.add_process(0, sender)
    for pid in range(1, n):
        kernel.add_process(pid, waiter)
    # Sends go out one local step (1e-4) apart from 0: three precede the outage.
    outage = CrashRecovery((Outage(pid=0, down_at=2.5e-4, up_at=9.0),))
    kernel.install_adversary(Adversary(Scenario("nap", (outage,)), rng.stream("adversary")))
    result = kernel.run()

    sends = [(entry.data["dest"], entry.time) for entry in kernel.trace.of_kind("send")]
    assert [dest for dest, _ in sends] == list(range(n))  # each destination once, in order
    assert all(time < 2.5e-4 for _, time in sends[:3])
    assert sends[3][1] == 9.0 and all(time > 9.0 for _, time in sends[4:])
    (recover,) = kernel.trace.of_kind("recover")
    assert recover.data == {"replayed": 2}  # its own "ping" and the backlogged step
    proc = kernel.process(0)
    assert proc.broadcast is None and not proc.paused_backlog
    assert proc.stats.messages_sent == network.stats.sent_by_process[0] == n
    assert proc.stats.steps == n + 1  # the buffered dispatch is not a step
    assert result.decisions == {0: "sent", **{pid: "ping" for pid in range(1, n)}}


def test_adversary_install_rejects_unknown_pids():
    scenario = Scenario("oops", (ProcessSlowdown(pids=(5,), extra_delay=1.0),))
    with pytest.raises(ValueError, match=r"targets process ids \[5\]"):
        _two_process_kernel(scenario)
    outage = Scenario("oops2", (CrashRecovery((Outage(9, 1.0, 2.0),)),))
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(4, 2), scenario=outage
    )
    with pytest.raises(ValueError, match=r"targets process ids \[9\]"):
        run_consensus(config)


def test_double_install_is_rejected():
    kernel, _ = _two_process_kernel(Scenario("empty", ()))
    with pytest.raises(RuntimeError, match="already installed"):
        kernel.install_adversary(
            Adversary(Scenario("second", ()), random.Random(0))
        )


def test_failure_pattern_install_rejects_out_of_range_pids():
    from repro.cluster.failures import FailurePattern

    config = ExperimentConfig(
        topology=ClusterTopology.even_split(4, 2),
        failure_pattern=FailurePattern({7: 1.0}),
    )
    with pytest.raises(ValueError, match=r"crashes process ids \[7\]"):
        run_consensus(config)


# ------------------------------------------------------------------ harness
TOPOLOGY = ClusterTopology.even_split(6, 3)
CAPPED = SimConfig(max_rounds=25, max_time=5e4)


def test_empty_scenario_is_bit_identical_to_no_scenario():
    base = ExperimentConfig(topology=TOPOLOGY, algorithm="hybrid-local-coin", seed=3)
    with_empty = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", seed=3,
        scenario=build_scenario("none", n=6),
    )
    left, right = run_consensus(base), run_consensus(with_empty)
    assert left.sim_result.decisions == right.sim_result.decisions
    assert left.sim_result.end_time == right.sim_result.end_time
    assert numeric_metric_values(left.metrics) == numeric_metric_values(right.metrics)


def test_same_seed_same_scenario_reproduces_identically():
    config = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", seed=11, sim=CAPPED,
        scenario=build_scenario("chaos", n=6, intensity=0.4),
    )
    first, second = run_consensus(config), run_consensus(config)
    assert numeric_metric_values(first.metrics) == numeric_metric_values(second.metrics)
    assert first.sim_result.decisions == second.sim_result.decisions


def test_termination_expectation_accounts_for_scenario():
    from repro.cluster.failures import FailurePattern

    lossy = build_scenario("lossy-links", n=6, intensity=0.3)
    benign = build_scenario("reorder-heavy", n=6, intensity=0.3)
    none_pattern = FailurePattern.none()
    assert termination_expected("hybrid-local-coin", TOPOLOGY, none_pattern)
    assert termination_expected("hybrid-local-coin", TOPOLOGY, none_pattern, benign)
    assert not termination_expected("hybrid-local-coin", TOPOLOGY, none_pattern, lossy)


def test_metrics_record_scenario_and_delay_model():
    config = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", seed=2, sim=CAPPED,
        scenario=build_scenario("duplication-storm", n=6, intensity=0.5),
    )
    result = run_consensus(config)
    assert result.metrics.scenario == "duplication-storm"
    assert result.metrics.delay_model == config.delay_model.describe()
    assert result.metrics.messages_duplicated > 0
    values = numeric_metric_values(result.metrics)
    assert "messages_duplicated" in values and "scenario" not in values


@pytest.mark.parametrize("algorithm", ["hybrid-local-coin", "hybrid-common-coin"])
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_library_scenario_preserves_safety(algorithm, name):
    for seed in (0, 1):
        config = ExperimentConfig(
            topology=TOPOLOGY, algorithm=algorithm, proposals="split", seed=seed,
            sim=CAPPED, scenario=build_scenario(name, n=6, intensity=0.5),
        )
        result = run_consensus(config)
        assert result.report.validity, f"{name}/{algorithm}/seed={seed}"
        assert result.report.agreement, f"{name}/{algorithm}/seed={seed}"
        scenario = config.scenario
        if scenario.liveness_preserving:
            assert result.terminated, f"{name}/{algorithm}/seed={seed}"
