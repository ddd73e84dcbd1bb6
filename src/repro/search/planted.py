"""A deliberately broken Ben-Or variant: the search harness's ground truth.

A schedule search that never finds anything proves little -- maybe the
algorithms are safe, maybe the search is blind.  This module plants a
known, *schedule-dependent* agreement bug so the suite can assert the
search actually detects real disagreement and that its replay tokens
reproduce it deterministically.

The bug: Ben-Or's phase-2 decision rule requires a championed value ``v``
with **no** ``⊥`` among the received phase-2 values -- every sender in the
majority must champion ``v`` -- and the decider then broadcasts ``DECIDE``
so laggards converge.  :class:`PlantedBenOrConsensus` decides as soon as
*any* championed value appears (even alongside ``⊥``) and skips the decide
broadcast.  Whether that premature decision disagrees with the rest of
the system depends entirely on which majority each process's exchange
happens to see -- i.e. on the dispatch schedule, which is exactly the
dimension :func:`~repro.search.explorer.search` explores.

The module holds the algorithm only.  The search wires it like any other
run: :func:`~repro.search.explorer.run_schedule` hands the class to
:func:`~repro.harness.runner.prepare_consensus`, which builds the network,
seed streams, proposals and local coins that ``ben-or`` gets, so the
planted run differs from a Ben-Or run in the decision rule alone.  Only the
search harness and its tests may import this module; the variant is
deliberately not registered in ``ALGORITHM_CLASSES``, so no experiment or
sweep can run it.
"""

from __future__ import annotations

from ..core.base import BOT
from ..core.local_coin import DECIDE_SILENTLY, FLIP, LocalCoinRound


class PlantedBenOrConsensus(LocalCoinRound):
    """Ben-Or with a premature phase-2 decision rule (agreement is broken)."""

    algorithm_name = "planted-ben-or"

    def phase2_rule(self, round_number: int, received: frozenset):
        """THE PLANTED BUG (two faults in one).

        Decides although ``⊥`` was received alongside the championed value
        (the correct rule demands unanimity in the majority), and decides
        without the ``DECIDE`` broadcast, so nobody learns about it.  It also
        skips the WA1 check, letting a genuinely disagreeing schedule
        complete instead of raising.
        """
        championed = received - {BOT}
        if championed:
            return DECIDE_SILENTLY, min(championed)
        return FLIP, None


__all__ = ["PlantedBenOrConsensus"]
