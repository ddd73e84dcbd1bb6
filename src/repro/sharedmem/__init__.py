"""Shared-memory substrate: registers, RMW primitives, cluster memories.

This package implements the intra-cluster shared memory ``MEM_x`` of the
paper's model: atomic read/write registers enriched with synchronization
operations of infinite consensus number, and the cluster-limited consensus
objects the algorithms invoke at every round.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "consensus_object": [
            "UNSET", "CASConsensusObject", "ConsensusObject", "ConsensusObjectStats",
            "LLSCConsensusObject",
        ],
        "memory": ["ClusterSharedMemory", "build_cluster_memories"],
        "register": ["AtomicRegister", "MemoryAccessError", "RegisterStats"],
        "rmw": ["CompareAndSwapRegister", "LLSCRegister"],
    },
)
