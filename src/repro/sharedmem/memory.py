"""Per-cluster shared memories (the paper's ``MEM_x``).

A :class:`ClusterSharedMemory` is the memory associated with one cluster
``P[x]``: only the members of that cluster may access it.  What the
consensus algorithms use of it is round-indexed arrays of cluster-limited
consensus objects (``CONS_x[r, 1]``, ``CONS_x[r, 2]`` for Algorithm 2,
``CONS_x[r]`` for Algorithm 3), created lazily on first use; each object
is built on one RMW register (:mod:`.rmw`) whose operations the memory
counts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from .consensus_object import CASConsensusObject, ConsensusObject, LLSCConsensusObject
from .register import MemoryAccessError

#: consensus object kind -> class; the one list of valid ``consensus_kind`` values.
CONSENSUS_FACTORIES = {
    "cas": CASConsensusObject,
    "llsc": LLSCConsensusObject,
}


class ClusterSharedMemory:
    """The shared memory of one cluster, with membership enforcement."""

    def __init__(
        self,
        cluster_index: int,
        members: Iterable[int],
        consensus_kind: str = "cas",
    ) -> None:
        self.cluster_index = cluster_index
        self.members: Set[int] = {int(pid) for pid in members}
        if not self.members:
            raise ValueError("a cluster memory needs at least one member")
        if consensus_kind not in CONSENSUS_FACTORIES:
            raise ValueError(
                f"unknown consensus object kind {consensus_kind!r}; "
                f"choose from {sorted(CONSENSUS_FACTORIES)}"
            )
        self.consensus_kind = consensus_kind
        self._consensus_objects: Dict[Tuple[Any, ...], ConsensusObject] = {}

    # ------------------------------------------------------------- membership
    def assert_member(self, pid: int) -> None:
        """Raise :class:`MemoryAccessError` unless ``pid`` belongs to the cluster."""
        if pid not in self.members:
            raise MemoryAccessError(
                f"process {pid} is not a member of cluster {self.cluster_index} "
                f"(members: {sorted(self.members)})"
            )

    def _qualified(self, name: str) -> str:
        return f"MEM_{self.cluster_index}.{name}"

    # ------------------------------------------------------ consensus objects
    def consensus_object(self, *key: Any) -> ConsensusObject:
        """The cluster-limited consensus object indexed by ``key``.

        Keys are arbitrary tuples; the algorithms use ``(tag, round, phase)``
        for Algorithm 2 (``CONS_x[r, 1]`` / ``CONS_x[r, 2]``) and
        ``(tag, round)`` for Algorithm 3 (``CONS_x[r]``).  Objects are created
        lazily and cached, so every member of the cluster that asks for the
        same key gets the very same object.
        """
        if key not in self._consensus_objects:
            factory = CONSENSUS_FACTORIES[self.consensus_kind]
            name = self._qualified("CONS[" + ", ".join(repr(part) for part in key) + "]")
            self._consensus_objects[key] = factory(name, members=self.members)
        return self._consensus_objects[key]

    # ---------------------------------------------------------------- metrics
    def consensus_objects_created(self) -> int:
        return len(self._consensus_objects)

    def consensus_invocations(self) -> int:
        return sum(obj.stats.invocations for obj in self._consensus_objects.values())

    def total_operations(self) -> int:
        """All primitive shared-memory operations performed on this memory."""
        return sum(obj._register.stats.total for obj in self._consensus_objects.values())

    def __repr__(self) -> str:
        return (
            f"ClusterSharedMemory(cluster={self.cluster_index}, "
            f"members={sorted(self.members)}, objects={len(self._consensus_objects)})"
        )


def build_cluster_memories(topology, consensus_kind: str = "cas") -> List[ClusterSharedMemory]:
    """One :class:`ClusterSharedMemory` per cluster of ``topology``."""
    return [
        ClusterSharedMemory(index, topology.cluster_members(index), consensus_kind)
        for index in range(topology.m)
    ]
