"""Crash-failure patterns and adversarial crash-scenario generators.

A :class:`FailurePattern` maps process ids to the virtual times at which they
crash.  Patterns are plain data: the harness installs them into the kernel
with :meth:`FailurePattern.install`, and the experiment modules use the
constructors below to build the scenarios discussed in the paper (crash a
majority outside a majority cluster, crash all-but-one inside a cluster,
violate the termination condition on purpose, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set

from .topology import ClusterTopology


@dataclass(frozen=True)
class FailurePattern:
    """A crash schedule: ``{pid: crash_time}`` (absent pid = never crashes)."""

    crashes: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pid, time in self.crashes.items():
            if not time >= 0:
                raise ValueError(
                    f"crash time for process {pid} must be >= 0 and not NaN, got {time!r}"
                )

    # ---------------------------------------------------------------- queries
    @property
    def crashed(self) -> Set[int]:
        """Ids of processes that eventually crash."""
        return set(self.crashes)

    def correct(self, n: int) -> Set[int]:
        """Ids of processes that never crash, out of ``0..n-1``."""
        return {pid for pid in range(n) if pid not in self.crashes}

    def crash_count(self) -> int:
        """How many distinct processes this pattern crashes."""
        return len(self.crashes)

    def crashes_majority(self, n: int) -> bool:
        """True when the pattern crashes a strict majority of the processes."""
        return 2 * len(self.crashes) > n

    def allows_termination(self, topology: ClusterTopology) -> bool:
        """The paper's termination condition under this pattern.

        True iff the clusters that keep at least one correct process cover a
        strict majority of all processes.
        """
        return topology.termination_condition_holds(self.correct(topology.n))

    def install(self, kernel) -> None:
        """Schedule every crash of this pattern into a simulation kernel.

        Raises a :class:`ValueError` naming the offending pids when the
        pattern crashes a process the kernel does not have -- a pattern
        built for the wrong ``n`` would otherwise fail with an opaque
        per-pid ``KeyError`` (or, if never installed, silently misrepresent
        the run's fault load).
        """
        known = set(kernel.process_ids())
        unknown = sorted(set(self.crashes) - known)
        if unknown:
            raise ValueError(
                f"failure pattern crashes process ids {unknown}, but the kernel only "
                f"has processes {sorted(known)}; build the pattern for this topology's n"
            )
        for pid, time in sorted(self.crashes.items()):
            kernel.schedule_crash(pid, time)

    def merged_with(self, other: "FailurePattern") -> "FailurePattern":
        """Combine two patterns; on conflict the earlier crash time wins."""
        merged: Dict[int, float] = dict(self.crashes)
        for pid, time in other.crashes.items():
            merged[pid] = min(time, merged.get(pid, time))
        return FailurePattern(merged)

    # ------------------------------------------------------------ constructors
    @classmethod
    def none(cls) -> "FailurePattern":
        """The failure-free pattern."""
        return cls({})

    @classmethod
    def crash_set(cls, pids: Iterable[int], time: float = 0.0) -> "FailurePattern":
        """Crash exactly the given processes, all at the same time."""
        return cls({int(pid): time for pid in pids})

    @classmethod
    def crash_all_but_one_in_cluster(
        cls,
        topology: ClusterTopology,
        cluster_index: int,
        survivor: Optional[int] = None,
        time: float = 0.0,
    ) -> "FailurePattern":
        """Crash every member of a cluster except one survivor.

        This is the scenario behind the "one for all and all for one" motto:
        the lone survivor must still represent its whole cluster.
        """
        members = sorted(topology.cluster_members(cluster_index))
        if survivor is None:
            survivor = members[0]
        if survivor not in members:
            raise ValueError(f"survivor {survivor} is not in cluster {cluster_index}")
        return cls({pid: time for pid in members if pid != survivor})

    @classmethod
    def majority_crash_with_surviving_majority_cluster(
        cls,
        topology: ClusterTopology,
        survivor: Optional[int] = None,
        time: float = 0.0,
    ) -> "FailurePattern":
        """The paper's headline scenario (Introduction and Conclusion).

        Requires a cluster holding a strict majority of processes.  Crashes
        *every* process except one survivor inside that majority cluster, so
        a majority of processes crash yet the termination condition holds.
        """
        index = topology.majority_cluster_index()
        if index is None:
            raise ValueError("topology has no majority cluster")
        members = sorted(topology.cluster_members(index))
        if survivor is None:
            survivor = members[0]
        if survivor not in members:
            raise ValueError(f"survivor {survivor} is not in the majority cluster")
        return cls({pid: time for pid in topology.process_ids() if pid != survivor})

    @classmethod
    def violate_termination_condition(
        cls, topology: ClusterTopology, time: float = 0.0
    ) -> "FailurePattern":
        """Crash whole clusters until the surviving clusters cannot cover a majority.

        Used by the indulgence experiment: under the returned pattern the
        algorithms may not terminate, but must never decide inconsistently.
        Clusters are crashed in decreasing size order, which reaches the goal
        with the fewest crashed clusters.
        """
        order = sorted(range(topology.m), key=lambda index: -len(topology.cluster_members(index)))
        crashed: Dict[int, float] = {}
        remaining = set(range(topology.m))
        for index in order:
            remaining.discard(index)
            for pid in topology.cluster_members(index):
                crashed[pid] = time
            if not topology.covers_majority(remaining):
                return cls(crashed)
        return cls(crashed)

    @classmethod
    def random_crashes(
        cls,
        rng: random.Random,
        n: int,
        count: int,
        earliest: float = 0.0,
        latest: float = 10.0,
    ) -> "FailurePattern":
        """Crash ``count`` uniformly chosen processes at uniform random times."""
        if not 0 <= count <= n:
            raise ValueError(f"count must be in [0, n], got {count} for n={n}")
        victims = rng.sample(range(n), count)
        return cls({pid: rng.uniform(earliest, latest) for pid in victims})

    def __repr__(self) -> str:
        if not self.crashes:
            return "FailurePattern(none)"
        parts = ", ".join(f"{pid}@{time:g}" for pid, time in sorted(self.crashes.items()))
        return f"FailurePattern({parts})"
