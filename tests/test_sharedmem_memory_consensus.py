"""Unit tests for cluster memories and intra-cluster consensus objects."""

import pytest

from tests.helpers import SyncContext, drive

from repro.cluster.topology import ClusterTopology
from repro.sharedmem.consensus_object import UNSET, CASConsensusObject, LLSCConsensusObject
from repro.sharedmem.memory import ClusterSharedMemory, build_cluster_memories
from repro.sharedmem.register import MemoryAccessError
from repro.sharedmem.rmw import CompareAndSwapRegister


# --------------------------------------------------------------- cluster memory
def test_memory_requires_members_and_known_kind():
    with pytest.raises(ValueError):
        ClusterSharedMemory(0, [])
    with pytest.raises(ValueError):
        ClusterSharedMemory(0, [0, 1], consensus_kind="quantum")


def test_assert_member_enforced():
    memory = ClusterSharedMemory(0, [0, 1, 2])
    memory.assert_member(1)
    with pytest.raises(MemoryAccessError):
        memory.assert_member(5)


def test_register_allocation_is_cached_and_qualified():
    memory = ClusterSharedMemory(2, [0, 1])
    reg = memory.register("flag", initial=0)
    assert memory.register("flag") is reg
    assert "MEM_2" in reg.name
    cas = memory.cas_register("winner")
    assert isinstance(cas, CompareAndSwapRegister)
    assert memory.faa_register("counter", 3).read() == 3
    assert memory.tas_register("lock").read() is False
    assert memory.swap_register("slot", "a").read() == "a"
    assert memory.llsc_register("ll", 1).read() == 1


def test_consensus_objects_cached_by_key():
    memory = ClusterSharedMemory(0, [0, 1])
    a = memory.consensus_object("alg", 1, 1)
    b = memory.consensus_object("alg", 1, 1)
    c = memory.consensus_object("alg", 1, 2)
    assert a is b and a is not c
    assert memory.consensus_objects_created() == 2


def test_memory_operation_counters_include_consensus_objects():
    memory = ClusterSharedMemory(0, [0, 1])
    ctx = SyncContext(pid=0)
    cons = memory.consensus_object("alg", 1)
    drive(cons.propose(ctx, 1))
    reg = memory.register("scratch", 0)
    reg.write(5)
    reg.read()
    assert memory.consensus_invocations() == 1
    assert memory.register_operations() == 2
    assert memory.total_operations() == 4  # 2 register ops + CAS + read inside the object


def test_build_cluster_memories_matches_topology():
    topo = ClusterTopology.figure1_right()
    memories = build_cluster_memories(topo)
    assert len(memories) == topo.m
    for index, memory in enumerate(memories):
        assert memory.members == set(topo.cluster_members(index))
        assert memory.cluster_index == index


def test_build_cluster_memories_llsc_kind():
    topo = ClusterTopology.even_split(4, 2)
    memories = build_cluster_memories(topo, consensus_kind="llsc")
    assert isinstance(memories[0].consensus_object("x"), LLSCConsensusObject)


# ------------------------------------------------------------ consensus objects
@pytest.mark.parametrize("factory", [CASConsensusObject, LLSCConsensusObject])
def test_consensus_object_agreement_and_validity(factory):
    obj = factory("cons", members={0, 1, 2})
    decisions = [drive(obj.propose(SyncContext(pid=pid), value=pid % 2)) for pid in range(3)]
    assert len(set(decisions)) == 1
    assert decisions[0] in (0, 1)
    # The decided value is the first proposal.
    assert decisions[0] == 0
    assert obj.decided_value() == 0
    assert obj.stats.invocations == 3
    assert obj.stats.winners == 1
    assert obj.stats.proposers == {0, 1, 2}


@pytest.mark.parametrize("factory", [CASConsensusObject, LLSCConsensusObject])
def test_consensus_object_membership_enforced(factory):
    obj = factory("cons", members={0, 1})
    with pytest.raises(MemoryAccessError):
        drive(obj.propose(SyncContext(pid=9), value=1))


def test_consensus_object_without_member_restriction_is_open():
    obj = CASConsensusObject("open")
    assert drive(obj.propose(SyncContext(pid=77), value=1)) == 1


def test_consensus_object_idempotent_for_same_proposer():
    obj = CASConsensusObject("cons", members={0})
    ctx = SyncContext(pid=0)
    assert drive(obj.propose(ctx, 1)) == 1
    assert drive(obj.propose(ctx, 0)) == 1  # later proposals adopt the decided value


def test_unset_is_a_singleton_and_distinct_from_none():
    assert UNSET is type(UNSET)()
    assert UNSET is not None
    assert repr(UNSET) == "UNSET"
    obj = CASConsensusObject("fresh")
    assert obj.decided_value() is UNSET

