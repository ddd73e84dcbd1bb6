"""Cluster topologies: the partition of processes into shared-memory clusters.

The paper (Section II-A) partitions the ``n`` processes into ``m`` non-empty,
pairwise-disjoint clusters ``P[1] .. P[m]``; the processes of a cluster (and
only them) share a memory ``MEM_x``.  Process ids here are 0-based
(``0 .. n-1``); the Figure 1 constructors document the mapping to the paper's
1-based ``p_1 .. p_7``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple


class TopologyError(ValueError):
    """Raised when a cluster description is not a valid partition."""


class ClusterTopology:
    """An immutable partition of processes ``0 .. n-1`` into clusters."""

    def __init__(self, clusters: Sequence[Iterable[int]]) -> None:
        normalized: List[FrozenSet[int]] = [frozenset(int(pid) for pid in c) for c in clusters]
        if not normalized:
            raise TopologyError("a topology needs at least one cluster")
        for index, members in enumerate(normalized):
            if not members:
                raise TopologyError(f"cluster {index} is empty")
        union: Set[int] = set()
        total = 0
        for members in normalized:
            total += len(members)
            union |= members
        if len(union) != total:
            raise TopologyError("clusters must be pairwise disjoint")
        if union != set(range(len(union))):
            raise TopologyError(
                f"cluster members must be exactly 0..n-1, got {sorted(union)}"
            )
        self._clusters: Tuple[FrozenSet[int], ...] = tuple(normalized)
        self._n = len(union)
        self._cluster_of: Dict[int, int] = {}
        for index, members in enumerate(self._clusters):
            for pid in members:
                self._cluster_of[pid] = index
        self._attribution = {
            True: (
                tuple(self._cluster_of[pid] for pid in range(self._n)),
                tuple(len(members) for members in self._clusters),
            ),
            False: (range(self._n), (1,) * self._n),
        }

    # ------------------------------------------------------------- properties
    @property
    def n(self) -> int:
        """Total number of processes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of clusters."""
        return len(self._clusters)

    @property
    def clusters(self) -> Tuple[FrozenSet[int], ...]:
        """The clusters, indexed ``0 .. m-1``."""
        return self._clusters

    @property
    def cluster_sizes(self) -> Tuple[int, ...]:
        """Member count of each cluster, in cluster-index order."""
        return tuple(len(members) for members in self._clusters)

    def process_ids(self) -> range:
        """All process ids of the system, ``0 .. n-1``."""
        return range(self._n)

    # --------------------------------------------------------------- queries
    def cluster_index_of(self, pid: int) -> int:
        """Index of the cluster containing ``pid``."""
        try:
            return self._cluster_of[pid]
        except KeyError:
            raise KeyError(f"unknown process id {pid}") from None

    def cluster_of(self, pid: int) -> FrozenSet[int]:
        """The paper's ``cluster(i)``: the members of ``pid``'s cluster."""
        try:
            return self._clusters[self._cluster_of[pid]]
        except KeyError:
            raise KeyError(f"unknown process id {pid}") from None

    def attribution(self, expand_clusters: bool) -> Tuple[Sequence[int], Sequence[int]]:
        """``(unit_of, weight)``: how a message counts toward a majority.

        A message from ``pid`` is attributed to the unit ``unit_of[pid]``,
        which stands for ``weight[unit]`` processes: with
        ``expand_clusters`` (the paper's rule) the unit is the sender's
        cluster index and its weight the cluster's size, without it the
        sender itself, weight 1.  Distinct units cover disjoint processes,
        so the weights of the units heard sum to the size of the heard set.
        """
        return self._attribution[expand_clusters]

    def cluster_members(self, index: int) -> FrozenSet[int]:
        """Members of cluster ``index``."""
        return self._clusters[index]

    def same_cluster(self, pid_a: int, pid_b: int) -> bool:
        """Whether two processes share a cluster (and therefore its memory)."""
        return self.cluster_index_of(pid_a) == self.cluster_index_of(pid_b)

    def is_majority(self, count: int) -> bool:
        """The paper's strict-majority test ``count > n/2``."""
        return 2 * count > self._n

    def majority_threshold(self) -> int:
        """Smallest integer count that constitutes a strict majority."""
        return self._n // 2 + 1

    def covers_majority(self, cluster_indices: Iterable[int]) -> bool:
        """Whether the named clusters together contain ``> n/2`` processes."""
        total = sum(len(self._clusters[index]) for index in set(cluster_indices))
        return self.is_majority(total)

    def majority_cluster_index(self) -> int | None:
        """Index of a cluster containing a strict majority, if one exists."""
        for index, members in enumerate(self._clusters):
            if self.is_majority(len(members)):
                return index
        return None

    def termination_condition_holds(self, correct: Iterable[int]) -> bool:
        """The paper's main fault-tolerance condition.

        True iff there is a set of clusters, each containing at least one
        correct process, whose total size exceeds ``n/2``.  (Taking *all*
        clusters with a correct member maximises the covered size, so a
        greedy check is exact.)
        """
        correct_set = set(correct)
        covered = sum(
            len(members)
            for members in self._clusters
            if members & correct_set
        )
        return self.is_majority(covered)

    def describe(self) -> str:
        """Human-readable description, e.g. ``n=7, m=3: {0,1,2} | {3,4} | {5,6}``."""
        parts = " | ".join("{" + ",".join(str(pid) for pid in sorted(c)) + "}" for c in self._clusters)
        return f"n={self.n}, m={self.m}: {parts}"

    # ----------------------------------------------------------- constructors
    @classmethod
    def single_cluster(cls, n: int) -> "ClusterTopology":
        """The ``m = 1`` extreme: the classical shared-memory model."""
        if n < 1:
            raise TopologyError("n must be positive")
        return cls([range(n)])

    @classmethod
    def singleton_clusters(cls, n: int) -> "ClusterTopology":
        """The ``m = n`` extreme: the classical message-passing model."""
        if n < 1:
            raise TopologyError("n must be positive")
        return cls([[pid] for pid in range(n)])

    @classmethod
    def even_split(cls, n: int, m: int) -> "ClusterTopology":
        """Split ``0..n-1`` into ``m`` contiguous clusters of near-equal size."""
        if not 1 <= m <= n:
            raise TopologyError(f"need 1 <= m <= n, got m={m}, n={n}")
        base, extra = divmod(n, m)
        clusters: List[List[int]] = []
        start = 0
        for index in range(m):
            size = base + (1 if index < extra else 0)
            clusters.append(list(range(start, start + size)))
            start += size
        return cls(clusters)

    @classmethod
    def with_majority_cluster(cls, n: int, majority_size: int | None = None, others: int = 1) -> "ClusterTopology":
        """A topology with one cluster holding a strict majority of processes.

        The remaining processes are split into ``others`` clusters (or fewer
        if there are not enough processes left).
        """
        if majority_size is None:
            majority_size = n // 2 + 1
        if not (n // 2 < majority_size <= n):
            raise TopologyError(
                f"majority_size must satisfy n/2 < size <= n, got {majority_size} for n={n}"
            )
        clusters: List[List[int]] = [list(range(majority_size))]
        rest = list(range(majority_size, n))
        if rest:
            others = max(1, min(others, len(rest)))
            base, extra = divmod(len(rest), others)
            start = 0
            for index in range(others):
                size = base + (1 if index < extra else 0)
                clusters.append(rest[start : start + size])
                start += size
        return cls(clusters)

    @classmethod
    def figure1_left(cls) -> "ClusterTopology":
        """The left decomposition of Figure 1: n=7, m=3.

        The figure is schematic; we take ``P[1]={p1,p2,p3}``, ``P[2]={p4,p5}``,
        ``P[3]={p6,p7}`` (0-based: {0,1,2}, {3,4}, {5,6}).  No cluster holds a
        strict majority.
        """
        return cls([[0, 1, 2], [3, 4], [5, 6]])

    @classmethod
    def figure1_right(cls) -> "ClusterTopology":
        """The right decomposition of Figure 1: n=7, m=3, with a majority cluster.

        The paper's conclusion names ``P[2] = {p2, p3, p4, p5}`` as the
        majority cluster of this decomposition, so we take ``P[1]={p1}``,
        ``P[2]={p2,p3,p4,p5}``, ``P[3]={p6,p7}`` (0-based: {0}, {1,2,3,4},
        {5,6}).
        """
        return cls([[0], [1, 2, 3, 4], [5, 6]])

    # --------------------------------------------------------------- dunders
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterTopology):
            return NotImplemented
        return set(self._clusters) == set(other._clusters)

    def __hash__(self) -> int:
        return hash(frozenset(self._clusters))

    def __repr__(self) -> str:
        return f"ClusterTopology({[sorted(c) for c in self._clusters]!r})"
