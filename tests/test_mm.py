"""Tests for the m&m model: domains, centred memories and the consensus analogue."""

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_consensus
from repro.mm.domain import DomainError, SharedMemoryDomain
from repro.mm.memory import ProcessCentredMemory, build_mm_memories, memories_accessible_by
from repro.sim.config import SimConfig


# ---------------------------------------------------------------------- domain
def test_domain_validation():
    with pytest.raises(DomainError):
        SharedMemoryDomain(0, [])
    with pytest.raises(DomainError):
        SharedMemoryDomain(3, [(0, 3)])
    with pytest.raises(DomainError):
        SharedMemoryDomain(3, [(1, 1)])


def test_domain_neighbours_and_groups():
    domain = SharedMemoryDomain(4, [(0, 1), (1, 2)])
    assert domain.neighbours(1) == frozenset({0, 2})
    assert domain.degree(1) == 2
    assert domain.memory_group(1) == frozenset({0, 1, 2})
    assert domain.memory_group(3) == frozenset({3})
    assert domain.memberships(0) == frozenset({0, 1})
    assert domain.memory_count() == 4
    assert not domain.is_connected()
    assert SharedMemoryDomain(1, []).is_connected()


def test_figure2_domain_matches_paper_appendix():
    domain = SharedMemoryDomain.figure2()
    # 0-based translation of S1..S5 from the appendix.
    assert domain.memory_group(0) == frozenset({0, 1})
    assert domain.memory_group(1) == frozenset({0, 1, 2})
    assert domain.memory_group(2) == frozenset({1, 2, 3, 4})
    assert domain.memory_group(3) == frozenset({2, 3, 4})
    assert domain.memory_group(4) == frozenset({2, 3, 4})
    # The *set* S collapses S4 and S5 into one group: four distinct subsets.
    assert domain.domain() == frozenset(
        {
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
            frozenset({1, 2, 3, 4}),
            frozenset({2, 3, 4}),
        }
    )
    assert domain.is_connected()
    assert "S0=" in domain.describe()


def test_domain_constructors():
    complete = SharedMemoryDomain.complete(4)
    assert all(complete.degree(pid) == 3 for pid in range(4))
    ring = SharedMemoryDomain.ring(5)
    assert all(ring.degree(pid) == 2 for pid in range(5))
    star = SharedMemoryDomain.star(5)
    assert star.degree(0) == 4 and star.degree(1) == 1
    with pytest.raises(DomainError):
        SharedMemoryDomain.ring(2)
    with pytest.raises(DomainError):
        SharedMemoryDomain.star(1)


def test_domain_from_cluster_topology_mirrors_clusters():
    topo = ClusterTopology([[0, 1, 2], [3, 4]])
    domain = SharedMemoryDomain.from_cluster_topology(topo)
    assert domain.memory_group(0) == frozenset({0, 1, 2})
    assert domain.memory_group(3) == frozenset({3, 4})
    # α_i + 1 equals the cluster size of p_i.
    for pid in topo.process_ids():
        assert domain.degree(pid) + 1 == len(topo.cluster_of(pid))


# -------------------------------------------------------------------- memories
def test_centred_memories_membership_and_count():
    domain = SharedMemoryDomain.figure2()
    memories = build_mm_memories(domain)
    assert set(memories) == set(range(5))
    assert isinstance(memories[2], ProcessCentredMemory)
    assert memories[2].members == set(domain.memory_group(2))
    accessible = memories_accessible_by(4, domain, memories)
    # p5 accesses its own memory plus those of its two neighbours: α_i + 1 = 3.
    assert len(accessible) == domain.degree(4) + 1
    assert accessible[0].center == 4  # own memory first


# ------------------------------------------------------------------- consensus
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mm_consensus_terminates_and_agrees(seed):
    topo = ClusterTopology.even_split(6, 2)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="mm-local-coin", proposals="split", seed=seed)
    )
    result.report.raise_on_violation()
    assert result.terminated


def test_mm_consensus_validity_on_unanimity():
    topo = ClusterTopology.even_split(6, 3)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="mm-local-coin", proposals="unanimous-1", seed=7)
    )
    assert result.decided_value == 1


def test_mm_consensus_uses_alpha_plus_one_invocations_per_phase():
    topo = ClusterTopology.even_split(8, 2)
    result = run_consensus(
        ExperimentConfig(topology=topo, algorithm="mm-local-coin", proposals="unanimous-0", seed=5)
    )
    metrics = result.metrics
    # Matched domain: every process has α_i + 1 = cluster size = 4.
    assert metrics.invocations_per_process_per_phase == pytest.approx(4.0, rel=0.3)
    # One centred memory per process is touched every phase.
    assert metrics.consensus_objects_per_phase == pytest.approx(topo.n, rel=0.3)


def test_mm_consensus_does_not_get_one_for_all_fault_tolerance():
    # Crash a majority: the m&m analogue (like any majority-based MP algorithm)
    # cannot terminate, even though the hybrid algorithm on the same topology can.
    topo = ClusterTopology.with_majority_cluster(7)
    pattern = FailurePattern.majority_crash_with_surviving_majority_cluster(topo)
    result = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm="mm-local-coin",
            proposals="split",
            seed=2,
            failure_pattern=pattern,
            sim=SimConfig(max_rounds=15, max_time=5e4),
        )
    )
    assert not result.terminated
    assert result.report.safety_ok

    hybrid = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm="hybrid-local-coin",
            proposals="split",
            seed=2,
            failure_pattern=pattern,
        )
    )
    hybrid.report.raise_on_violation()
    assert hybrid.terminated


def test_mm_consensus_with_explicit_figure2_domain():
    topo = ClusterTopology.singleton_clusters(5)
    domain = SharedMemoryDomain.figure2()
    result = run_consensus(
        ExperimentConfig(
            topology=topo,
            algorithm="mm-local-coin",
            proposals="alternating",
            seed=3,
            mm_domain=domain,
        )
    )
    result.report.raise_on_violation()
    assert result.terminated
