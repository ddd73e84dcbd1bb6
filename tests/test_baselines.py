"""Behavioural tests of the baseline algorithms (Ben-Or, MP common coin, shared memory)."""

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.core.base import ProcessEnvironment
from repro.baselines.ben_or import BenOrConsensus
from repro.baselines.mp_common_coin import MessagePassingCommonCoinConsensus
from repro.baselines.shared_memory_only import SharedMemoryConsensus
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_consensus
from repro.sharedmem.memory import ClusterSharedMemory
from repro.sim.config import SimConfig

MESSAGE_PASSING = ("ben-or", "mp-common-coin")


# -------------------------------------------------------------- constructor checks
def test_ben_or_requires_local_coin():
    topo = ClusterTopology.singleton_clusters(3)
    with pytest.raises(ValueError, match="^ben-or needs a local coin$"):
        BenOrConsensus(ProcessEnvironment(pid=0, proposal=0, topology=topo))


def test_mp_common_coin_requires_common_coin():
    topo = ClusterTopology.singleton_clusters(3)
    with pytest.raises(ValueError, match="^mp-common-coin needs a common coin$"):
        MessagePassingCommonCoinConsensus(ProcessEnvironment(pid=0, proposal=0, topology=topo))


def test_shared_memory_baseline_requires_memory_and_single_cluster():
    single = ClusterTopology.single_cluster(3)
    split = ClusterTopology.even_split(4, 2)
    with pytest.raises(ValueError, match="^shared-memory needs a cluster memory$"):
        SharedMemoryConsensus(ProcessEnvironment(pid=0, proposal=0, topology=single))
    memory = ClusterSharedMemory(0, split.cluster_members(0))
    with pytest.raises(ValueError, match="all processes share one cluster"):
        SharedMemoryConsensus(
            ProcessEnvironment(pid=0, proposal=0, topology=split, memory=memory)
        )


# ------------------------------------------------------------------ basic behaviour
@pytest.mark.parametrize("algorithm", MESSAGE_PASSING)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_message_passing_baselines_terminate_failure_free(algorithm, seed):
    topo = ClusterTopology.singleton_clusters(5)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm=algorithm, proposals="split", seed=seed)
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert result.decided_value in (0, 1)


@pytest.mark.parametrize("algorithm", MESSAGE_PASSING)
@pytest.mark.parametrize("value", [0, 1])
def test_message_passing_baselines_validity_on_unanimity(algorithm, value):
    topo = ClusterTopology.singleton_clusters(4)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals=f"unanimous-{value}", seed=5
        )
    )
    result.report.raise_on_violation()
    assert result.decided_value == value


@pytest.mark.parametrize("algorithm", MESSAGE_PASSING)
def test_message_passing_baselines_tolerate_minority_crashes(algorithm):
    topo = ClusterTopology.singleton_clusters(7)
    pattern = FailurePattern.crash_set({0, 1, 2}, time=1.0)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm=algorithm, proposals="split", seed=3, failure_pattern=pattern
        )
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", MESSAGE_PASSING)
def test_message_passing_baselines_blocked_by_majority_crash_but_safe(algorithm):
    topo = ClusterTopology.singleton_clusters(7)
    pattern = FailurePattern.crash_set(range(4), time=0.0)
    result = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm=algorithm,
            proposals="split",
            seed=3,
            failure_pattern=pattern,
            sim=SimConfig(max_rounds=25, max_time=5e4),
        )
    )
    assert not result.terminated
    assert result.report.safety_ok
    assert not result.report.termination_expected


def test_ben_or_uses_no_shared_memory():
    topo = ClusterTopology.singleton_clusters(5)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="ben-or", proposals="split", seed=1)
    )
    assert result.metrics.sm_ops == 0
    assert result.metrics.consensus_invocations == 0


def test_ben_or_ignores_cluster_structure_for_attribution():
    # Even when run on a topology with a majority cluster, Ben-Or must not
    # benefit from cluster attribution: crashing the whole majority cluster
    # except one process removes the correct majority and blocks it.
    topo = ClusterTopology.figure1_right()
    pattern = FailurePattern.majority_crash_with_surviving_majority_cluster(topo, survivor=1)
    result = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm="ben-or",
            proposals="split",
            seed=2,
            failure_pattern=pattern,
            sim=SimConfig(max_rounds=20, max_time=5e4),
        )
    )
    assert not result.terminated
    assert result.report.safety_ok


def test_shared_memory_baseline_decides_without_messages():
    topo = ClusterTopology.single_cluster(6)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="shared-memory", proposals="split", seed=0)
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert result.metrics.messages_sent == 0
    assert result.metrics.sm_ops > 0
    assert result.metrics.rounds_max == 1


def test_shared_memory_baseline_tolerates_all_but_one_crash():
    topo = ClusterTopology.single_cluster(6)
    pattern = FailurePattern.crash_set(range(1, 6), time=0.0)
    result = run_consensus(
        ExperimentConfig(
            topology=topo, algorithm="shared-memory", proposals="split", seed=0, failure_pattern=pattern
        )
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert 0 in result.sim_result.decisions


def test_shared_memory_baseline_decides_first_proposers_value():
    topo = ClusterTopology.single_cluster(3)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="shared-memory", proposals={0: 1, 1: 0, 2: 0}, seed=4)
    )
    assert result.decided_value in (0, 1)
    # Whatever was decided, every process decided the same thing.
    assert len(set(result.sim_result.decisions.values())) == 1
