"""An m&m-style consensus used for the Section III-C comparison.

The paper contrasts its hybrid algorithm with the m&m consensus of Aguilera
et al. on two counts: (i) the number of shared-memory consensus objects
touched per phase of a round (``n`` centred memories vs ``m`` cluster
memories), and (ii) the number of consensus-object invocations *per process*
per phase (``α_i + 1`` vs exactly ``1``); and it points out that the m&m
model cannot provide the "one for all and all for one" attribution because
its memories overlap.

This module implements a structurally faithful analogue rather than a
verbatim transcription of [1] (whose full pseudo-code is not in the paper
under reproduction -- see "Substitutions" in ``docs/experiments.md``): the
Ben-Or round of :class:`~repro.core.local_coin.LocalCoinRound` in which, before
broadcasting, every process invokes the round's consensus object in *each*
of the ``α_i + 1`` centred memories it can access and adopts the value
decided by its *own* centred memory.  Messages
are attributed to their senders only.  The analogue preserves the invocation
and object counts and the absence of cluster attribution, which is what
experiment E5 measures, and it remains a correct consensus algorithm when a
strict majority of processes is correct (the pre-agreement step only changes
which proposed value a process carries into the round).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.base import ProcessEnvironment
from ..core.local_coin import LocalCoinRound
from .domain import SharedMemoryDomain
from .memory import ProcessCentredMemory, memories_accessible_by


class MMConsensus(LocalCoinRound):
    """One process's instance of the m&m-style local-coin consensus."""

    algorithm_name = "mm-local-coin"
    shared_memory = "centred"

    def __init__(
        self,
        env: ProcessEnvironment,
        domain: SharedMemoryDomain,
        memories: Dict[int, ProcessCentredMemory],
        tag: Optional[str] = None,
    ) -> None:
        super().__init__(env, tag)
        self._accessible = memories_accessible_by(env.pid, domain, memories)
        self._own_memory = memories[env.pid]

    def pre_agree(self, ctx, round_number: int, phase: int, value: Any):
        """Invoke the phase's consensus object in every accessible memory.

        Returns the value decided by the process's own centred memory, which
        the process then broadcasts.  This is the ``α_i + 1`` invocations per
        phase the paper attributes to the m&m model.
        """
        adopted = value
        for memory in self._accessible:
            cons = memory.consensus_object(self.tag, round_number, phase)
            decided = yield from cons.propose(ctx, value)
            if memory is self._own_memory:
                adopted = decided
        return adopted
