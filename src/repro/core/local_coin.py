"""Algorithm 2: local-coin binary consensus for the hybrid model.

The algorithm proceeds in asynchronous rounds of two phases.  In each phase
the members of a cluster first agree on a single value through the cluster's
consensus object (``CONS_x[r, 1]`` then ``CONS_x[r, 2]``), then run the
``msg_exchange`` pattern across all clusters.  Phase 1 selects a value to
*champion* (or ``⊥``); phase 2 decides when only one championed value is
seen, adopts it when it is seen alongside ``⊥``, and otherwise flips a local
coin.  With singleton clusters the cluster consensus is vacuous and the
algorithm degenerates to Ben-Or's 1983 algorithm, of which it is the
hybrid-model extension.

The two-phase round is written once, in :class:`LocalCoinRound`, whose
defaults are Ben-Or's.  Every local-coin algorithm is a binding of it that
sets three parameters: the pre-agreement step before each broadcast, whether
a message counts for its sender's whole cluster (``expand_clusters``), and
the phase-2 rule.  Algorithm 2 is Ben-Or plus ``CONS_x[r, ph]`` and cluster
attribution -- exactly the difference experiment E6 measures.
"""

from __future__ import annotations

from typing import Any

from .base import BOT, ConsensusProcess, ProtocolInvariantError, cluster_condition, validate_proposal
from .pattern import msg_exchange

#: Verdicts of a phase-2 rule: flip the local coin, carry the value into the
#: next round, decide it after broadcasting ``DECIDE``, or decide it silently.
FLIP, ADOPT, DECIDE, DECIDE_SILENTLY = "flip", "adopt", "decide", "decide-silently"


class LocalCoinRound(ConsensusProcess):
    """The two-phase local-coin round, parameterised by its bindings.

    * ``pre_agree(ctx, round_number, phase, est)`` returns a generator whose
      value is what the phase broadcasts; ``None`` broadcasts ``est``.
    * ``expand_clusters`` is handed to :func:`msg_exchange`.
    * :meth:`phase2_rule` reads the values received in phase 2.
    """

    phases_per_round = 2
    coin = "local"
    pre_agree = None
    expand_clusters = False

    def phase2_rule(self, round_number: int, received: frozenset):
        """Ben-Or's rule, as ``(verdict, value)``: decide on ``{v}``, adopt on ``{v, ⊥}``, flip on ``{⊥}``.

        Adopting ``v`` on ``{v, ⊥}`` keeps any other value from being decided
        later.  Weak agreement WA1 -- any two processes with ``est2 != ⊥`` hold the
        same value, because two strict majorities intersect and every
        cluster is univalent in a phase -- allows at most one championed
        value; a second one means an invariant broke.
        """
        championed = received - {BOT}
        if len(championed) > 1:
            raise ProtocolInvariantError(
                f"{self.tag}: process {self.env.pid} received the distinct championed values "
                f"{sorted(championed)} in phase 2 of round {round_number}, violating weak "
                "agreement WA1"
            )
        if not championed:
            return FLIP, None
        return (ADOPT if BOT in received else DECIDE), next(iter(championed))

    def run(self, ctx):
        env = self.env
        topology = env.topology
        pre_agree = self.pre_agree
        est1: Any = validate_proposal(env.proposal)
        round_number = 0
        while True:
            round_number += 1
            ctx.mark_round(round_number)

            # ----- Phase 1: try to champion a value --------------------------
            if pre_agree is not None:
                est1 = yield from pre_agree(ctx, round_number, 1, est1)
            outcome = yield from msg_exchange(ctx, env, round_number, 1, est1, self.tag, self.expand_clusters)
            if outcome.is_decide:
                return (yield from self.broadcast_decide(ctx, outcome.decide_value))
            majority_value = outcome.majority_value(topology)
            est2: Any = majority_value if majority_value is not None else BOT

            # ----- Phase 2: try to decide from the championed values ---------
            if pre_agree is not None:
                est2 = yield from pre_agree(ctx, round_number, 2, est2)
            outcome = yield from msg_exchange(ctx, env, round_number, 2, est2, self.tag, self.expand_clusters)
            if outcome.is_decide:
                return (yield from self.broadcast_decide(ctx, outcome.decide_value))

            verdict, value = self.phase2_rule(round_number, outcome.values_received)
            if verdict == FLIP:
                ctx.count_coin_flip()
                value = env.local_coin.flip()
            elif verdict == DECIDE:
                # Flood DECIDE first, so nobody waits on a decided process.
                return (yield from self.broadcast_decide(ctx, value))
            elif verdict == DECIDE_SILENTLY:
                return value
            est1 = value


class LocalCoinConsensus(LocalCoinRound):
    """One process's instance of the paper's Algorithm 2."""

    algorithm_name = "hybrid-local-coin"
    shared_memory = "cluster"
    expand_clusters = True
    termination_holds = staticmethod(cluster_condition)

    def pre_agree(self, ctx, round_number: int, phase: int, est: Any):
        """Agree inside the cluster first: ``est`` proposed to ``CONS_x[r, ph]``."""
        return self.env.memory.consensus_object(self.tag, round_number, phase).propose(ctx, est)
