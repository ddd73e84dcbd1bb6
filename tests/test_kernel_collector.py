"""The cyclic collector is off the event loop's bill -- and may stay off.

``SimulationKernel.run()`` and ``CooperativeScheduler.run()`` pause CPython's
cyclic collector (``repro.sim.kernel.collector_paused``).  That is only sound
while two invariants hold, and both are pinned here with the collector held
*off by the test*, so reference counting alone has to do the work:

* a finished run is acyclic: dropping the ``PreparedRun``/kernel frees the
  whole graph -- mailboxes, queue tail, generators -- immediately;
* a run creates no cyclic garbage per event: what ``gc.collect()`` finds
  after a run does not grow with the run's length.

The rest pins where the pause lives (the two drivers, never ``run_batch``)
and that it restores the caller's state on every exit path.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.adversary import build_adaptive_scenario, build_scenario
from repro.cluster.topology import ClusterTopology
from repro.coins.local import DeterministicCoin
from repro.harness.parallel import run_many
from repro.harness.runner import ALGORITHMS, ExperimentConfig, prepare_consensus, run_consensus
from repro.network.transport import Network
from repro.sim.kernel import SimulationKernel
from repro.sim.multikernel import CooperativeScheduler, kernel_stepper, run_cooperative

TOPOLOGY = ClusterTopology.figure1_right()
SCENARIOS = {
    "no-scenario": None,
    "adaptive": lambda n: build_adaptive_scenario("delay-pivotal", n=n),
    "crash-recovery": lambda n: build_scenario("crash-recovery", n=n),
}


@contextmanager
def _entered(enabled):
    """Enter the block with the collector on or off; restore afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def collector_off():
    """Hold the collector off for the test; start from a clean slate."""
    gc.collect()
    with _entered(False):
        yield


def _config(algorithm, scenario):
    # The shared-memory baseline only exists on one cluster.
    topology = ClusterTopology.single_cluster(7) if algorithm == "shared-memory" else TOPOLOGY
    builder = SCENARIOS[scenario]
    return ExperimentConfig(
        topology=topology,
        algorithm=algorithm,
        seed=3,
        scenario=builder(topology.n) if builder is not None else None,
    )


class _Payload:
    """A weakly referenceable payload (``Message`` is a slotless tuple)."""


def _early_decider(ctx):
    """Broadcast, decide on the first two deliveries: leaves a queue tail."""
    yield from ctx.broadcast(_Payload())
    yield from ctx.wait_until(lambda mailbox: True if len(mailbox) >= 2 else None)
    return 1


def _flood_kernel(n=8):
    kernel = SimulationKernel(seed=5)
    kernel.attach_network(Network(n, rng=kernel.rng))
    for pid in range(n):
        kernel.add_process(pid, _early_decider)
    return kernel


# --------------------------------------------------- (a) a finished run is acyclic
@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_finished_consensus_run_is_freed_by_reference_counting(
    collector_off, algorithm, scenario
):
    prepared = prepare_consensus(_config(algorithm, scenario))
    kernel_ref = weakref.ref(prepared.kernel)
    sim_result = prepared.kernel.run()
    # A Message cannot be weakly referenced, but it holds its payload
    # strongly: a dead payload means every Message carrying it is dead.
    delivered = [
        weakref.ref(proc.mailbox[0].payload)
        for proc in prepared.kernel.processes.values()
        if proc.mailbox
    ]
    assert delivered or algorithm == "shared-memory"
    result = prepared.finalize(sim_result, 0.0)
    del prepared, sim_result
    assert kernel_ref() is None, "a finished kernel must not need the cyclic collector"
    assert result.report is not None  # the RunResult outlives its kernel
    del result
    assert all(ref() is None for ref in delivered)


def test_finished_bare_kernel_is_freed_with_its_queue_tail(collector_off):
    kernel = _flood_kernel()
    kernel.schedule_crash(7, 2.5e-4)  # three sends into its broadcast: the cursor stays behind
    kernel.run()
    assert kernel._inflight, "the early deciders must leave undelivered messages behind"
    kernel_ref = weakref.ref(kernel)
    delivered = weakref.ref(kernel.process(0).mailbox[0].payload)
    in_flight = weakref.ref(kernel._inflight[-1][4])
    owed = weakref.ref(kernel.process(7).broadcast[1])
    del kernel
    assert kernel_ref() is None and delivered() is None and in_flight() is None and owed() is None


def test_context_outliving_its_kernel_raises_reference_error(collector_off):
    kernel = _flood_kernel()
    context = kernel.process(0).context
    kernel.run()
    assert context.now() == kernel.now
    del kernel
    with pytest.raises(ReferenceError):
        context.now()
    assert context.stats.messages_sent == 8  # plain counters stay readable


# ------------------------------------------- (b) where the pause lives, what it restores
def _probing_kernel(seen, fail=False):
    def probe(ctx):
        seen.append(gc.isenabled())
        yield from ctx.local_step()
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("process blew up mid-run")
        return 1

    kernel = SimulationKernel(seed=1)
    kernel.add_process(0, probe)
    kernel.add_process(1, probe)
    return kernel


DRIVERS = {
    "run": lambda kernel: kernel.run(),
    "coop": lambda kernel: CooperativeScheduler(width=1).run([kernel_stepper(kernel, 1)]),
}


#: The collector's state at entry: a caller who had it off must keep it off.
ENTRY_STATES = (True, False)


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_drivers_pause_the_collector_and_restore_the_entry_state(driver):
    for entry_state in ENTRY_STATES:
        with _entered(entry_state):
            seen = []
            DRIVERS[driver](_probing_kernel(seen))
            assert seen == [False] * 4, "algorithm steps must run with the collector off"
            assert gc.isenabled() is entry_state


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_entry_state_is_restored_when_a_process_raises(driver):
    for entry_state in ENTRY_STATES:
        with _entered(entry_state):
            seen = []
            with pytest.raises(RuntimeError, match="blew up"):
                DRIVERS[driver](_probing_kernel(seen, fail=True))
            assert seen and not any(seen)
            assert gc.isenabled() is entry_state


def test_pause_lives_in_the_drivers_never_in_run_batch():
    # Re-enabling at a batch boundary would make every boundary a traversal
    # of everything allocated so far: whoever drives batches owns the pause.
    for entry_state in ENTRY_STATES:
        with _entered(entry_state):
            batched, driven = [], []
            assert _probing_kernel(batched).run_batch(100) is not None
            assert batched == [entry_state] * 4
            assert gc.isenabled() is entry_state
            _probing_kernel(driven).run()
            assert driven == [False] * 4


# ------------------------------------------------------------------ (c) nesting
@pytest.fixture
def enable_calls(monkeypatch):
    """Enter with the collector on; record its state at each ``gc.enable()``."""
    calls = []
    real_enable = gc.enable

    def recording_enable():
        calls.append(gc.isenabled())
        real_enable()

    with _entered(True):
        monkeypatch.setattr(gc, "enable", recording_enable)
        yield calls


def test_run_cooperative_restores_exactly_once(enable_calls):
    seen = []
    results = run_cooperative([_probing_kernel(seen) for _ in range(3)], batch_events=1)
    assert len(results) == 3 and seen == [False] * 12
    assert enable_calls == [False] and gc.isenabled()


def test_run_many_coop_restores_exactly_once(enable_calls):
    configs = [ExperimentConfig(topology=TOPOLOGY, seed=seed) for seed in range(3)]
    results = run_many(configs, max_workers=2, exec_mode="coop")
    assert len(results) == 3
    assert enable_calls == [False] and gc.isenabled()


def test_inner_run_does_not_reenable_under_an_outer_driver(enable_calls):
    seen = []

    def nested_driver():
        inner = _probing_kernel(seen).run()  # a nested pause: enter, exit
        seen.append(gc.isenabled())  # ...the outer one still holds
        yield
        return inner

    (result,) = CooperativeScheduler(width=1).run([nested_driver()])
    assert result.decisions == {0: 1, 1: 1}
    assert seen == [False] * 5
    assert enable_calls == [False] and gc.isenabled()


# --------------------------------------- no cyclic garbage per event (the assumption)
#: Unreachable objects a run may leave behind *independently of its length*
#: (measured: 0 on CPython 3.11).  One cycle per message, round or process
#: step overshoots this by orders of magnitude.
GARBAGE_SLACK = 16


def _scripted_run(rounds, n=8):
    """The ledger's ``deep_rounds`` shape: split estimates until ``rounds``."""
    config = ExperimentConfig(
        topology=ClusterTopology.singleton_clusters(n),
        algorithm="hybrid-local-coin",
        proposals="split",
        seed=11,
    )
    result = run_consensus(
        config,
        local_coin_factory=lambda pid: DeterministicCoin([pid % 2] * (rounds - 2) + [0, 0]),
    )
    assert result.metrics.rounds_max == rounds
    return result.sim_result.events_processed


def _adversarial_run():
    """One e9-shaped run under an adaptive strategy plus declarative faults."""
    scenario = build_adaptive_scenario("delay-pivotal", n=TOPOLOGY.n, intensity=0.4)
    result = run_consensus(ExperimentConfig(topology=TOPOLOGY, scenario=scenario, seed=2))
    return result.sim_result.events_processed


def test_garbage_left_by_a_run_does_not_grow_with_its_length(collector_off):
    events_short = _scripted_run(5)
    garbage_short = gc.collect()
    events_long = _scripted_run(20)
    garbage_long = gc.collect()
    assert events_long > 3 * events_short
    assert abs(garbage_long - garbage_short) <= GARBAGE_SLACK, (
        f"{garbage_short} unreachable objects after 5 rounds, {garbage_long} after 20: "
        "something allocates a reference cycle per event, which the paused "
        "collector will not reclaim until the run ends"
    )
    _adversarial_run()
    assert abs(gc.collect() - garbage_short) <= GARBAGE_SLACK
