"""End-to-end integration tests across many configurations.

These runs exercise the full stack (kernel + network + cluster memories +
coins + algorithms + harness) under combinations of topology, proposals,
delays and crash patterns, asserting the consensus properties on every run.
"""

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_consensus
from repro.harness.workloads import crash_scenarios, standard_topologies
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.config import SimConfig


HYBRID = ("hybrid-local-coin", "hybrid-common-coin")


@pytest.mark.parametrize("algorithm", HYBRID)
@pytest.mark.parametrize("topology_name", ["single-cluster", "singletons", "even-2", "even-3", "majority-cluster"])
def test_all_topology_shapes_terminate(algorithm, topology_name):
    topology = standard_topologies(6)[topology_name]
    result = run_consensus(
        ExperimentConfig(topology=topology, algorithm=algorithm, proposals="split", seed=17)
    )
    result.report.raise_on_violation()
    assert result.terminated


@pytest.mark.parametrize("algorithm", HYBRID)
@pytest.mark.parametrize("proposals", ["unanimous-0", "unanimous-1", "split", "alternating", "one-dissenter"])
def test_all_proposal_patterns(algorithm, proposals):
    topology = ClusterTopology.even_split(7, 3)
    result = run_consensus(
        ExperimentConfig(topology=topology, algorithm=algorithm, proposals=proposals, seed=23)
    )
    result.report.raise_on_violation()
    assert result.decided_value in (0, 1)
    if proposals.startswith("unanimous"):
        assert result.decided_value == int(proposals[-1])


@pytest.mark.parametrize("algorithm", HYBRID)
def test_every_named_crash_scenario_is_safe(algorithm):
    topology = ClusterTopology.figure1_right()
    for name, pattern in crash_scenarios(topology).items():
        result = run_consensus(
            ExperimentConfig(
                topology=topology,
                algorithm=algorithm,
                proposals="split",
                seed=31,
                failure_pattern=pattern,
                sim=SimConfig(max_rounds=30, max_time=1e5),
            )
        )
        assert result.report.safety_ok, f"safety violated under scenario {name!r}"
        if pattern.allows_termination(topology):
            assert result.terminated, f"expected termination under scenario {name!r}"


@pytest.mark.parametrize(
    "delay_model",
    [ConstantDelay(1.0), UniformDelay(0.1, 5.0), ExponentialDelay(mean=2.0)],
)
def test_delay_distributions_full_matrix(delay_model):
    topology = ClusterTopology.even_split(6, 3)
    for algorithm in HYBRID:
        result = run_consensus(
            ExperimentConfig(
                topology=topology,
                algorithm=algorithm,
                proposals="alternating",
                seed=41,
                delay_model=delay_model,
            )
        )
        result.report.raise_on_violation()


@pytest.mark.parametrize("seed", range(12))
def test_many_seeds_agree_and_are_valid(seed):
    topology = ClusterTopology.even_split(8, 3)
    result = run_consensus(
        ExperimentConfig(topology=topology, algorithm="hybrid-local-coin", proposals="split", seed=seed)
    )
    result.report.raise_on_violation()
    decisions = set(result.sim_result.decisions.values())
    assert len(decisions) == 1 and decisions <= {0, 1}


@pytest.mark.parametrize("seed", range(6))
def test_common_coin_many_seeds(seed):
    topology = ClusterTopology.even_split(7, 3)
    result = run_consensus(
        ExperimentConfig(
            topology=topology, algorithm="hybrid-common-coin", proposals="alternating", seed=seed
        )
    )
    result.report.raise_on_violation()


def test_concurrent_instances_do_not_interfere_via_tags():
    """Two consensus instances with different tags share one network safely."""
    from repro.coins.local import LocalCoin
    from repro.core.base import ProcessEnvironment
    from repro.core.local_coin import LocalCoinConsensus
    from repro.network.transport import Network
    from repro.sharedmem.memory import build_cluster_memories
    from repro.sim.kernel import SimulationKernel
    from repro.sim.rng import RandomSource

    topology = ClusterTopology.even_split(4, 2)
    rng = RandomSource(55)
    kernel = SimulationKernel(config=SimConfig(), rng=rng)
    kernel.attach_network(Network(topology.n, rng=rng))
    memories_a = build_cluster_memories(topology)
    memories_b = build_cluster_memories(topology)
    decisions = {}

    def make(pid, tag, memories, proposal):
        env = ProcessEnvironment(
            pid=pid,
            proposal=proposal,
            topology=topology,
            memory=memories[topology.cluster_index_of(pid)],
            local_coin=LocalCoin(rng.stream("coin", tag, pid)),
        )
        return LocalCoinConsensus(env, tag=tag)

    # Interleave both instances inside each simulated process.
    def combined(ctx, pid=None):
        first = yield from make(pid, "instance-a", memories_a, pid % 2).run(ctx)
        second = yield from make(pid, "instance-b", memories_b, 1 - (pid % 2)).run(ctx)
        decisions[pid] = (first, second)
        return first

    for pid in topology.process_ids():
        kernel.add_process(pid, lambda ctx, pid=pid: combined(ctx, pid=pid))
    result = kernel.run()
    assert result.status.terminated
    firsts = {pair[0] for pair in decisions.values()}
    seconds = {pair[1] for pair in decisions.values()}
    assert len(firsts) == 1 and len(seconds) == 1


def test_larger_system_with_clusters_and_crashes():
    topology = ClusterTopology.even_split(20, 4)
    pattern = FailurePattern.crash_set({0, 5, 10, 15, 19}, time=3.0)
    result = run_consensus(
        ExperimentConfig(
            topology=topology,
            algorithm="hybrid-local-coin",
            proposals="split",
            seed=3,
            failure_pattern=pattern,
        )
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert result.metrics.n == 20


def test_decide_messages_unblock_lagging_clusters():
    """A fully crashed cluster cannot block the others, and a cluster whose
    peers already decided is released by the DECIDE flood."""
    topology = ClusterTopology.even_split(9, 3)
    pattern = FailurePattern.crash_set(topology.cluster_members(2), time=0.0)
    result = run_consensus(
        ExperimentConfig(
            topology=topology,
            algorithm="hybrid-local-coin",
            proposals="split",
            seed=19,
            failure_pattern=pattern,
        )
    )
    result.report.raise_on_violation()
    assert result.terminated
    assert set(result.sim_result.decisions) == set(range(9)) - set(topology.cluster_members(2))
