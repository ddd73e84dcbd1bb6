"""Behavioural tests of Algorithm 2 and Algorithm 3 through the harness."""

import ast

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.core.base import ProcessEnvironment
from repro.core.common_coin import CommonCoinConsensus
from repro.core.local_coin import LocalCoinConsensus
from repro.harness.runner import ALGORITHMS, ExperimentConfig, run_consensus
from repro.network.delays import ExponentialDelay, SpikeDelay
from repro.sharedmem.memory import ClusterSharedMemory
from repro.sim.kernel import SimConfig
from tests.helpers import SRC, count_calls

HYBRID = ("hybrid-local-coin", "hybrid-common-coin")


# ------------------------------------------------------------- constructor checks
def test_local_coin_consensus_requires_memory_and_coin():
    topo = ClusterTopology.single_cluster(2)
    memory = ClusterSharedMemory(0, [0, 1])
    env_no_memory = ProcessEnvironment(pid=0, proposal=0, topology=topo)
    with pytest.raises(ValueError, match="^hybrid-local-coin needs a cluster memory and a local coin$"):
        LocalCoinConsensus(env_no_memory)
    env_no_coin = ProcessEnvironment(pid=0, proposal=0, topology=topo, memory=memory)
    with pytest.raises(ValueError, match="^hybrid-local-coin needs a local coin$"):
        LocalCoinConsensus(env_no_coin)


def test_common_coin_consensus_requires_memory_and_coin():
    topo = ClusterTopology.single_cluster(2)
    memory = ClusterSharedMemory(0, [0, 1])
    with pytest.raises(ValueError, match="^hybrid-common-coin needs a cluster memory and a common coin$"):
        CommonCoinConsensus(ProcessEnvironment(pid=0, proposal=0, topology=topo))
    with pytest.raises(ValueError, match="^hybrid-common-coin needs a common coin$"):
        CommonCoinConsensus(ProcessEnvironment(pid=0, proposal=0, topology=topo, memory=memory))


def test_one_round_body_per_coin_kind():
    """A count, not prose: a copied consensus round cannot come back unnoticed.

    The local-coin round exchanges twice and the common-coin round once;
    each flips its coin in one place, and the WA1 refusal has one raise site.
    """
    sources = sorted(SRC.rglob("*.py"))
    assert sum(count_calls(path, "msg_exchange") for path in sources) == 3
    assert sum(count_calls(path, "count_coin_flip") for path in sources) == 2
    assert sum(count_calls(path, "ProtocolInvariantError") for path in sources) == 1
    # The harness learns what an algorithm needs from its class, not its name.
    for module in ("runner.py", "metrics.py"):
        strings = {
            node.value
            for node in ast.walk(ast.parse((SRC / "harness" / module).read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not strings & set(ALGORITHMS), f"harness/{module} names an algorithm"


# ----------------------------------------------------------------- basic behaviour
@pytest.mark.parametrize("algorithm", HYBRID)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hybrid_consensus_terminates_and_agrees_failure_free(algorithm, seed):
    topo = ClusterTopology.figure1_left()
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals="split", seed=seed)
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert result.decided_value in (0, 1)
    assert set(result.sim_result.decisions) == set(range(topo.n))


@pytest.mark.parametrize("algorithm", HYBRID)
@pytest.mark.parametrize("value", [0, 1])
def test_unanimous_proposals_decide_that_value(algorithm, value):
    topo = ClusterTopology.even_split(6, 3)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals=f"unanimous-{value}", seed=11
        )
    )
    result.report.raise_on_violation()
    assert result.decided_value == value


def test_local_coin_decides_in_one_round_on_unanimous_input():
    topo = ClusterTopology.even_split(9, 3)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="hybrid-local-coin", proposals="unanimous-1", seed=5)
    )
    assert result.metrics.rounds_max == 1


@pytest.mark.parametrize("algorithm", HYBRID)
def test_single_cluster_converges_fast(algorithm):
    # With m = 1 every process adopts the cluster-consensus value immediately,
    # so phase 1 already exhibits a unanimous majority: Algorithm 2 decides in
    # round 1, Algorithm 3 as soon as the common coin matches (geometric with
    # mean 2, so a handful of rounds at most for any fixed seed).
    topo = ClusterTopology.single_cluster(5)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals="split", seed=3)
    )
    result.report.raise_on_violation()
    if algorithm == "hybrid-local-coin":
        assert result.metrics.rounds_max == 1
    else:
        assert result.metrics.rounds_max <= 8


@pytest.mark.parametrize("algorithm", HYBRID)
def test_works_with_singleton_clusters(algorithm):
    topo = ClusterTopology.singleton_clusters(5)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals="alternating", seed=9)
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", HYBRID)
def test_works_with_n_equals_one(algorithm):
    topo = ClusterTopology.single_cluster(1)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals={0: 1}, seed=0)
    )
    result.report.raise_on_violation()
    assert result.decided_value == 1


# ------------------------------------------------------------------ fault tolerance
@pytest.mark.parametrize("algorithm", HYBRID)
def test_headline_scenario_majority_crash(algorithm):
    topo = ClusterTopology.figure1_right()
    pattern = FailurePattern.majority_crash_with_surviving_majority_cluster(topo, survivor=2)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=4, failure_pattern=pattern
        )
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert pattern.crashes_majority(topo.n)
    assert result.sim_result.decisions  # the survivor decided
    assert 2 in result.sim_result.decisions


@pytest.mark.parametrize("algorithm", HYBRID)
def test_one_survivor_per_cluster_still_terminates(algorithm):
    topo = ClusterTopology.even_split(9, 3)
    pattern = FailurePattern.none()
    for index in range(topo.m):
        pattern = pattern.merged_with(FailurePattern.crash_all_but_one_in_cluster(topo, index))
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=6, failure_pattern=pattern
        )
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", HYBRID)
def test_mid_run_crashes_preserve_safety(algorithm):
    topo = ClusterTopology.even_split(8, 4)
    pattern = FailurePattern({0: 1.5, 3: 2.5, 6: 0.5})
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=13, failure_pattern=pattern
        )
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", HYBRID)
def test_condition_violating_pattern_never_decides_wrongly(algorithm):
    topo = ClusterTopology.even_split(8, 4)
    pattern = FailurePattern.violate_termination_condition(topo)
    result = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm=algorithm,
            proposals="split",
            seed=8,
            failure_pattern=pattern,
            sim=SimConfig(max_rounds=20, max_time=1e5),
        )
    )
    assert result.report.safety_ok
    assert not result.report.termination_expected


# ------------------------------------------------------------------- environment
@pytest.mark.parametrize("algorithm", HYBRID)
@pytest.mark.parametrize("delay_model", [ExponentialDelay(mean=1.0), SpikeDelay()])
def test_robust_to_delay_distributions(algorithm, delay_model):
    topo = ClusterTopology.even_split(6, 2)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=21, delay_model=delay_model
        )
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", HYBRID)
def test_llsc_consensus_objects_work_too(algorithm):
    topo = ClusterTopology.even_split(6, 3)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=2, consensus_kind="llsc"
        )
    )
    result.report.raise_on_violation()
    assert result.terminated


def test_same_seed_reproduces_identical_metrics():
    topo = ClusterTopology.figure1_right()
    config = ExperimentConfig(topology=topo, algorithm="hybrid-local-coin", proposals="split", seed=77)
    first = run_consensus(config)
    second = run_consensus(config)
    assert first.metrics.messages_sent == second.metrics.messages_sent
    assert first.metrics.rounds_max == second.metrics.rounds_max
    assert first.sim_result.decisions == second.sim_result.decisions
    assert first.metrics.decision_time_max == pytest.approx(second.metrics.decision_time_max)


@pytest.mark.parametrize("algorithm", HYBRID)
def test_cluster_members_send_identical_phase_values(algorithm):
    """Within a round and phase, all members of a cluster broadcast the same value.

    This is the univalence property that makes the one-for-all attribution
    sound; we check it on the recorded network traffic.
    """
    from repro.core.base import PhaseMessage
    from repro.network.transport import Network
    from repro.sim.kernel import SimulationKernel
    from repro.sim.rng import RandomSource
    from repro.sharedmem.memory import build_cluster_memories
    from repro.coins.local import LocalCoin
    from repro.coins.common import CommonCoin
    from repro.core.local_coin import LocalCoinConsensus
    from repro.core.common_coin import CommonCoinConsensus

    topo = ClusterTopology.even_split(6, 2)
    rng = RandomSource(31)
    kernel = SimulationKernel(config=SimConfig(), rng=rng)
    network = Network(topo.n, rng=rng)
    kernel.attach_network(network)
    memories = build_cluster_memories(topo)
    common = CommonCoin(31)
    sent_values = {}

    original_prepare = network.prepare

    def recording_prepare(sender, dest, payload, time):
        if isinstance(payload, PhaseMessage):
            key = (topo.cluster_index_of(sender), payload.round_number, payload.phase)
            sent_values.setdefault(key, set()).add((payload.est if payload.est in (0, 1) else "BOT"))
        return original_prepare(sender=sender, dest=dest, payload=payload, time=time)

    network.prepare = recording_prepare

    for pid in topo.process_ids():
        env = ProcessEnvironment(
            pid=pid,
            proposal=pid % 2,
            topology=topo,
            memory=memories[topo.cluster_index_of(pid)],
            local_coin=LocalCoin(rng.stream("coin", pid)),
            common_coin=common,
        )
        algo = LocalCoinConsensus(env) if algorithm == "hybrid-local-coin" else CommonCoinConsensus(env)
        kernel.add_process(pid, algo.run)
    kernel.run()

    for key, values in sent_values.items():
        assert len(values) == 1, f"cluster {key[0]} sent {values} in round {key[1]} phase {key[2]}"
