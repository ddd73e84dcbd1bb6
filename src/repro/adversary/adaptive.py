"""The adaptive scenario table e10 sweeps, by name.

The adaptive strategies themselves -- :class:`DelayPivotal`,
:class:`TargetCoin` and :class:`SplitRounds` -- are fault primitives in
:mod:`~repro.adversary.faults` (re-exported here), and the one runtime
:class:`~repro.adversary.scenario.Adversary` runs them next to the
declarative primitives:

* :class:`DelayPivotal` -- defer exactly the delivery that would complete a
  blocked process's wait (the message that would push a ``msg_exchange``
  past its majority quorum), probing each pending delivery against the
  receiver's wait predicate.
* :class:`TargetCoin` -- attack the exchange that feeds the round's coin
  flip.  The paper's coins are *local* objects (no coin value is ever
  broadcast), so there is no coin message to intercept; what the strategy
  can and does attack is the estimate exchange that determines what the
  processes adopt around the flip: deliveries carrying the currently
  *leading* estimate of their ``(tag, round, phase)`` instance are delayed
  (or omitted outright in ``"omit"`` mode), maximising disagreement
  pressure right where the coin is supposed to break symmetry.
* :class:`SplitRounds` -- keep two process groups about one round apart:
  deliveries from the group that is ahead (by observed round number) into
  the group that lags are deferred, so the groups progress out of phase
  without any message being lost.

The strategies draw no randomness at all (their verdicts are pure
functions of observed state), so adaptive scenarios keep shard/steal
merges bit-identical at any worker count, like the declarative ones.
"""

from __future__ import annotations

from typing import Dict, List

from .faults import DelayPivotal, MessageCorruption, SplitRounds, TargetCoin
from .library import ScenarioBuilder, build_named, halves
from .scenario import Adversary, Scenario


class AdaptiveAdversary(Adversary):
    """Kept only for ``bench/spans.py``, which imports it by name.

    :class:`~repro.adversary.scenario.Adversary` runs every strategy; this
    subclass adds nothing and nothing in the package builds it.
    """


# --------------------------------------------------------------------- library
def adaptive_scenario_names() -> List[str]:
    """Every adaptive scenario name, sorted."""
    return sorted(ADAPTIVE_SCENARIOS)


def build_adaptive_scenario(name: str, n: int, intensity: float = 0.2) -> Scenario:
    """Instantiate the named adaptive scenario for an ``n``-process system.

    Checked like :func:`~repro.adversary.library.build_scenario`:
    ``intensity`` in ``[0, 1]`` scales strategy aggressiveness (deferral
    magnitudes and budgets, corruption probability), and 0 yields a
    behaviourally fault-free scenario.
    """
    return build_named(ADAPTIVE_SCENARIOS, name, n, intensity, kind="adaptive scenario")


def _budget(intensity: float) -> int:
    """Deferral budget scaling: 1 at the mildest, 8 at full intensity."""
    return 1 + int(7 * intensity)


def _delay_pivotal(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("delay-pivotal", ())
    return Scenario(
        "delay-pivotal",
        (DelayPivotal(extra_delay=5.0 * intensity, max_deferrals=_budget(intensity)),),
    )


def _target_coin(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("target-coin", ())
    return Scenario(
        "target-coin",
        (
            TargetCoin(
                mode="delay", extra_delay=5.0 * intensity, max_deferrals=_budget(intensity)
            ),
        ),
    )


def _target_coin_omit(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("target-coin-omit", ())
    return Scenario(
        "target-coin-omit",
        (TargetCoin(mode="omit", extra_delay=5.0 * intensity, max_deferrals=_budget(intensity)),),
    )


def _split_rounds(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("split-rounds", ())
    return Scenario(
        "split-rounds",
        (
            SplitRounds(
                groups=halves(n),
                extra_delay=5.0 * intensity,
                max_deferrals=_budget(intensity),
            ),
        ),
    )


def _byzantine_tamper(n: int, intensity: float) -> Scenario:
    """Authenticated payload corruption: tampering degrades to omission.

    Unauthenticated corruption is deliberately *not* a sweep scenario --
    forged payloads can derail the protocol into an invariant violation
    (that is the point of modelling them), which would kill sweep workers
    instead of producing rows.  The tests exercise it directly.
    """
    if intensity == 0.0:
        return Scenario("byzantine-tamper", ())
    return Scenario(
        "byzantine-tamper",
        (MessageCorruption(probability=intensity, authenticated=True),),
    )


#: Every adaptive scenario by name.  Deliberately apart from the declarative
#: :data:`~repro.adversary.library.SCENARIOS`: e9 sweeps that table
#: wholesale, so a name added there would change e9's plan (and void its
#: fingerprints).  Experiment e10 sweeps this one instead.
ADAPTIVE_SCENARIOS: Dict[str, ScenarioBuilder] = {
    "delay-pivotal": _delay_pivotal,
    "target-coin": _target_coin,
    "target-coin-omit": _target_coin_omit,
    "split-rounds": _split_rounds,
    "byzantine-tamper": _byzantine_tamper,
}


__all__ = [
    "DelayPivotal",
    "SplitRounds",
    "TargetCoin",
    "adaptive_scenario_names",
    "build_adaptive_scenario",
]
