"""Shared-memory-only consensus (the ``m = 1`` extreme of the model).

When every process lives in a single cluster the hybrid model collapses to
the classical shared-memory model and consensus is solved deterministically
and wait-free by a single compare&swap-based consensus object, tolerating
any number of crashes.  This baseline is the ``m = 1`` reference point of
experiments E6 and E8: maximal fault tolerance and minimal latency, but no
scalability story (the whole system must share one memory).
"""

from __future__ import annotations

from typing import Optional

from ..core.base import ConsensusProcess, ProcessEnvironment, validate_proposal


class SharedMemoryConsensus(ConsensusProcess):
    """Deterministic wait-free consensus through one cluster consensus object."""

    algorithm_name = "shared-memory"
    shared_memory = "cluster"

    @staticmethod
    def termination_holds(topology, correct) -> bool:
        """Wait-free: one correct process suffices."""
        return True

    def __init__(self, env: ProcessEnvironment, tag: Optional[str] = None) -> None:
        super().__init__(env, tag)
        if len(env.topology.cluster_of(env.pid)) != env.topology.n:
            raise ValueError(
                "the shared-memory baseline only applies when all processes share one cluster (m=1)"
            )

    def run(self, ctx):
        env = self.env
        proposal = validate_proposal(env.proposal)
        ctx.mark_round(1)
        cons = env.memory.consensus_object(self.tag, "decision")
        decided = yield from cons.propose(ctx, proposal)
        return decided
