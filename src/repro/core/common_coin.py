"""Algorithm 3: common-coin binary consensus for the hybrid model.

Rounds have a single phase.  Each round the cluster members agree on their
estimate through ``CONS_x[r]``, exchange it across clusters, and then query
the common coin.  If a value is supported by a strict majority the process
adopts it and decides when the coin agrees with it; otherwise the coin's bit
becomes the new estimate.  Once every correct process holds the same
estimate, the expected number of additional rounds before the coin matches
it is 2 -- the property checked by experiment E4.

The algorithm is the hybrid-model extension of the crash-failure version of
the Friedman–Mostéfaoui–Raynal common-coin consensus as presented in
Raynal's 2018 book.  The round is written once, in :class:`CommonCoinRound`,
whose defaults are that message-passing algorithm's; Algorithm 3 binds it
with ``CONS_x[r]`` as the pre-agreement step and cluster attribution.
"""

from __future__ import annotations

from typing import Any

from .base import ConsensusProcess, cluster_condition, validate_proposal
from .pattern import msg_exchange


class CommonCoinRound(ConsensusProcess):
    """The single-phase common-coin round, parameterised by its bindings.

    * ``pre_agree(ctx, round_number, est)`` returns a generator whose value
      is what the round broadcasts; ``None`` broadcasts ``est``.
    * ``expand_clusters`` is handed to :func:`msg_exchange`.
    """

    coin = "common"
    pre_agree = None
    expand_clusters = False

    def run(self, ctx):
        env = self.env
        topology = env.topology
        pre_agree = self.pre_agree
        est: Any = validate_proposal(env.proposal)
        round_number = 0
        while True:
            round_number += 1
            ctx.mark_round(round_number)

            if pre_agree is not None:
                est = yield from pre_agree(ctx, round_number, est)
            outcome = yield from msg_exchange(ctx, env, round_number, 1, est, self.tag, self.expand_clusters)
            if outcome.is_decide:
                return (yield from self.broadcast_decide(ctx, outcome.decide_value))

            # Every process obtains the same bit for this round.
            ctx.count_coin_flip()
            coin_bit = env.common_coin.bit(round_number, ctx.pid)

            majority_value = outcome.majority_value(topology)
            if majority_value is not None:
                est = majority_value
                if coin_bit == majority_value:
                    return (yield from self.broadcast_decide(ctx, majority_value))
            else:
                est = coin_bit


class CommonCoinConsensus(CommonCoinRound):
    """One process's instance of the paper's Algorithm 3."""

    algorithm_name = "hybrid-common-coin"
    shared_memory = "cluster"
    expand_clusters = True
    termination_holds = staticmethod(cluster_condition)

    def pre_agree(self, ctx, round_number: int, est: Any):
        """Agree inside the cluster first: ``est`` proposed to ``CONS_x[r]``."""
        return self.env.memory.consensus_object(self.tag, round_number).propose(ctx, est)
