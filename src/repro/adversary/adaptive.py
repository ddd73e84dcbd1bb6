"""Adaptive adversary strategies: fault decisions conditioned on kernel state.

The declarative primitives in :mod:`~repro.adversary.faults` flip seeded
coins without looking at the execution; the strategies here instead watch
the run through the kernel hooks the base :class:`~.scenario.Adversary`
already has -- :meth:`~.scenario.Adversary.defer` sees every event (with
its full message) at dispatch time -- and pick their targets from what the
protocol is actually doing:

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

All three are frozen dataclasses of plain values, registered through
:func:`~.faults.register_fault_type`: they pickle, hash, and carry stable
value-only ``repr``\\ s, so adaptive scenarios enter sweep-plan fingerprints
and shard/steal merges stay bit-identical at any worker count -- the adaptive decisions
themselves draw no randomness at all (they are pure functions of observed
state), which makes that determinism trivial rather than delicate.

:func:`build_adversary` is the engine factory the harness uses: scenarios
composed purely of declarative primitives get the base engine, scenarios
holding any adaptive strategy get an :class:`AdaptiveAdversary`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sim.events import Event, MessageDelivery
from ..sim.process import ProcessState
from .faults import (
    MessageCorruption,
    _check_window,
    _normalised_pids,
    register_fault_type,
)
from .library import ScenarioBuilder, build_named, halves
from .scenario import Adversary, Scenario

_INF = math.inf


def _check_strategy(extra_delay: float, max_deferrals: int) -> None:
    if extra_delay <= 0:
        raise ValueError(f"extra_delay must be > 0, got {extra_delay}")
    if max_deferrals < 1:
        raise ValueError(f"max_deferrals must be >= 1, got {max_deferrals}")


@dataclass(frozen=True)
class DelayPivotal:
    """Defer the delivery that would complete the receiver's pending wait.

    At each dispatch of a message delivery, the strategy probes the
    receiver: if it is blocked and its wait predicate is unsatisfied by the
    current mailbox but *would* be satisfied with this message appended,
    the delivery is pivotal -- typically the vote that completes a
    ``msg_exchange`` majority -- and is postponed by ``extra_delay``.  Each
    delivery is deferred at most ``max_deferrals`` times and then released,
    so every message still arrives: the strategy stretches every quorum to
    its last possible moment without ever breaking liveness.
    """

    extra_delay: float = 2.0
    max_deferrals: int = 8
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_strategy(self.extra_delay, self.max_deferrals)
        _check_window(self.start, self.end)

    @property
    def liveness_preserving(self) -> bool:
        """Bounded deferrals only delay the quorum, never prevent it."""
        return True


#: The two TargetCoin attack modes.
TARGET_COIN_MODES = ("delay", "omit")


@dataclass(frozen=True)
class TargetCoin:
    """Attack the estimate exchange feeding the round's coin flip.

    The coins of the paper (and of this reproduction) are local objects:
    no process ever broadcasts its coin value, so an adversary cannot
    literally intercept "the common-coin broadcast".  What it *can* do --
    and what this strategy does -- is suppress the information the coin is
    meant to complement: deliveries whose payload carries the currently
    leading estimate of their ``(tag, round, phase)`` instance (the value
    the exchange is converging on, as counted from deliveries observed so
    far) are delayed by ``extra_delay`` in ``"delay"`` mode, or dropped in
    ``"omit"`` mode.  Ties between estimates leave no unique leader and
    nothing is faulted, so the strategy stays fully deterministic.
    """

    mode: str = "delay"
    extra_delay: float = 2.0
    max_deferrals: int = 8
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.mode not in TARGET_COIN_MODES:
            raise ValueError(
                f"unknown TargetCoin mode {self.mode!r}; choose from {TARGET_COIN_MODES}"
            )
        _check_strategy(self.extra_delay, self.max_deferrals)
        _check_window(self.start, self.end)

    @property
    def liveness_preserving(self) -> bool:
        """Delaying preserves every delivery; omitting loses messages."""
        return self.mode == "delay"


@dataclass(frozen=True)
class SplitRounds:
    """Keep two process groups progressing about one round apart.

    The strategy tracks, per group, the highest round number observed in
    any delivered payload sent by a group member.  A delivery crossing
    from the group that is *ahead* into a group that lags is deferred by
    ``extra_delay`` (at most ``max_deferrals`` times), so the lagging
    group keeps working its older round undisturbed -- the groups stay out
    of phase without a single message being lost.
    """

    groups: Tuple[Tuple[int, ...], ...]
    extra_delay: float = 2.0
    max_deferrals: int = 8

    def __post_init__(self) -> None:
        _check_strategy(self.extra_delay, self.max_deferrals)
        if len(self.groups) < 2:
            raise ValueError("a round split needs at least two groups")
        groups = tuple(_normalised_pids(group, "split group") for group in self.groups)
        seen: set = set()
        for group in groups:
            if not group:
                raise ValueError("split groups must be non-empty")
            overlap = seen.intersection(group)
            if overlap:
                raise ValueError(f"split groups must be disjoint; {sorted(overlap)} repeated")
            seen.update(group)
        object.__setattr__(self, "groups", groups)

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid named by the split groups."""
        return tuple(pid for group in self.groups for pid in group)

    @property
    def liveness_preserving(self) -> bool:
        """Bounded deferrals desynchronise the groups but starve nobody."""
        return True


#: The adaptive strategy primitives (handled only by AdaptiveAdversary).
ADAPTIVE_FAULT_TYPES = (DelayPivotal, TargetCoin, SplitRounds)

for _fault_type in ADAPTIVE_FAULT_TYPES:
    register_fault_type(_fault_type)


class AdaptiveAdversary(Adversary):
    """The state-observing engine for scenarios with adaptive strategies.

    Extends the base engine's dispatch-time :meth:`defer` verdict: message
    deliveries are first observed (estimate counts per exchange instance,
    per-group round progress), then offered to the adaptive strategies in a
    fixed order -- delay-pivotal, target-coin, split-rounds -- and the
    first strategy that wants the event wins.  A finite verdict re-queues
    the delivery (the kernel offers it again later, and per-event deferral
    counts bound how often); an infinite verdict drops it at dispatch,
    which the kernel accounts as an omission.

    No adaptive decision draws randomness: verdicts are pure functions of
    the observed execution, so identical schedules produce identical
    faults in any execution mode, and the base engine's seeded stream is
    consumed exactly as a non-adaptive run would consume it.
    """

    def __init__(self, scenario: Scenario, rng: random.Random) -> None:
        # The strategy buckets must exist before the base constructor walks
        # the scenario's faults (it hands unknown primitives to
        # _bucket_extra, which fills these).
        self._delay_pivotal: List[DelayPivotal] = []
        self._target_coins: List[TargetCoin] = []
        self._split_rounds: List[SplitRounds] = []
        super().__init__(scenario, rng)
        self._adaptive = bool(
            self._delay_pivotal or self._target_coins or self._split_rounds
        )
        # This engine's defer() can fire for a strategy as well as for a
        # declarative slowdown; with neither it answers 0.0 like the base,
        # so only a further subclass replacing it forces consultation.  The
        # kernel reads the flag once, in install_adversary.
        self.defers_events = (
            self._adaptive
            or bool(self._slowdowns)
            or self._overrides("defer", AdaptiveAdversary)
        )
        #: id(event) -> times this delivery has been adaptively deferred.
        #: Safe to key on identity: the kernel's _deferred table pins the
        #: event object alive for exactly as long as our entry exists.
        self._defer_counts: Dict[int, int] = {}
        #: (tag, round, phase) -> {est: observed deliveries carrying it}.
        self._est_counts: Dict[tuple, Dict[object, int]] = {}
        #: split-group index -> highest round number observed from it.
        self._group_rounds: Dict[int, int] = {}
        self._group_of: Dict[int, int] = {}
        for fault in self._split_rounds:
            for index, group in enumerate(fault.groups):
                for pid in group:
                    self._group_of[pid] = index
        #: Every adaptive intervention, as ``(now, strategy, action,
        #: sender, dest)`` tuples (action is "defer" or "omit") -- the
        #: inspectable trace the strategy unit tests assert against.
        self.deferral_log: List[Tuple[float, str, str, int, int]] = []

    def _bucket_extra(self, fault) -> bool:
        for fault_type, bucket in (
            (DelayPivotal, self._delay_pivotal),
            (TargetCoin, self._target_coins),
            (SplitRounds, self._split_rounds),
        ):
            if isinstance(fault, fault_type):
                bucket.append(fault)
                return True
        return False

    # --------------------------------------------------- dispatch-time verdict
    def defer(self, event: Event, now: float) -> float:
        """Declarative slowdowns first, then the adaptive strategies."""
        extra = Adversary.defer(self, event, now)
        if extra > 0.0:
            return extra
        if not self._adaptive or type(event) is not MessageDelivery:
            return 0.0
        message = event.message
        payload = getattr(message, "payload", None)
        counts = self._defer_counts
        key = id(event)
        count = counts.get(key)
        if count is None:
            # First offer of this delivery: fold it into the observed state
            # exactly once, no matter how often it is subsequently deferred.
            count = 0
            self._observe(message, payload)
        verdict, strategy = self._strategy_verdict(event, message, payload, now, count)
        if verdict == 0.0:
            counts.pop(key, None)
            return 0.0
        sender = getattr(message, "sender", -1)
        if verdict == _INF:
            counts.pop(key, None)
            self.deferral_log.append((now, strategy, "omit", sender, event.pid))
            return verdict
        counts[key] = count + 1
        self.deferral_log.append((now, strategy, "defer", sender, event.pid))
        return verdict

    # ------------------------------------------------------------- observation
    def _observe(self, message, payload) -> None:
        """Fold one dispatched delivery into the observed protocol state.

        Duck-typed over the algorithm payloads: anything carrying ``est``
        (phase messages) feeds the estimate counts; anything carrying
        ``round_number`` advances its sender's group round.  Foreign
        payloads (including tampered wrappers) contribute nothing.
        """
        est = getattr(payload, "est", None)
        if est is not None:
            instance = (
                getattr(payload, "tag", None),
                getattr(payload, "round_number", 0),
                getattr(payload, "phase", 0),
            )
            bucket = self._est_counts.setdefault(instance, {})
            bucket[est] = bucket.get(est, 0) + 1
        if self._group_of:
            round_number = getattr(payload, "round_number", None)
            if round_number is not None:
                group = self._group_of.get(getattr(message, "sender", -1))
                if group is not None and round_number > self._group_rounds.get(group, -1):
                    self._group_rounds[group] = round_number

    # -------------------------------------------------------------- strategies
    def _strategy_verdict(
        self, event, message, payload, now: float, count: int
    ) -> Tuple[float, str]:
        """The first adaptive strategy that wants this delivery, in order."""
        for pivotal in self._delay_pivotal:
            if (
                pivotal.start <= now < pivotal.end
                and count < pivotal.max_deferrals
                and self._is_pivotal(event)
            ):
                return pivotal.extra_delay, "delay-pivotal"
        for coin in self._target_coins:
            if not coin.start <= now < coin.end:
                continue
            if not self._carries_leading_est(payload):
                continue
            if coin.mode == "omit":
                return _INF, "target-coin"
            if count < coin.max_deferrals:
                return coin.extra_delay, "target-coin"
        for split in self._split_rounds:
            if count < split.max_deferrals and self._crosses_into_lagging_group(
                message, event.pid
            ):
                return split.extra_delay, "split-rounds"
        return 0.0, ""

    def _is_pivotal(self, event) -> bool:
        """Whether delivering ``event`` now would complete a pending wait.

        A pure probe: the receiver's wait predicate is evaluated against
        its current mailbox and against a copy with this message appended.
        Neither call changes any later answer: by the wait-predicate
        contract (see :class:`~repro.sim.context.WaitEffect`) a result
        depends only on the contents of the list it is given, so the copy
        -- a different list object -- can never be served from, or leak
        into, whatever a predicate memoises for the live mailbox.
        """
        proc = self._kernel.process(event.pid)
        if proc.paused or proc.state is not ProcessState.BLOCKED:
            return False
        predicate = proc.wait_predicate
        if predicate is None:
            return False
        mailbox = proc.mailbox
        if predicate(mailbox) is not None:
            return False
        return predicate(list(mailbox) + [event.message]) is not None

    def _carries_leading_est(self, payload) -> bool:
        """Whether ``payload`` carries the unique leading estimate so far."""
        est = getattr(payload, "est", None)
        if est not in (0, 1):
            return False
        instance = (
            getattr(payload, "tag", None),
            getattr(payload, "round_number", 0),
            getattr(payload, "phase", 0),
        )
        bucket = self._est_counts.get(instance)
        if not bucket:
            return False
        best = max(bucket.values())
        leaders = [value for value, seen in bucket.items() if seen == best]
        return len(leaders) == 1 and leaders[0] == est

    def _crosses_into_lagging_group(self, message, dest: int) -> bool:
        """Whether this delivery flows from a leading into a lagging group."""
        groups = self._group_of
        sender_group = groups.get(getattr(message, "sender", -1))
        if sender_group is None:
            return False
        dest_group = groups.get(dest)
        if dest_group is None or dest_group == sender_group:
            return False
        rounds = self._group_rounds
        return rounds.get(sender_group, -1) > rounds.get(dest_group, -1)


def build_adversary(scenario: Scenario, rng: random.Random) -> Adversary:
    """The engine factory: adaptive scenarios get the observing engine.

    Scenarios composed purely of declarative primitives keep the base
    :class:`~.scenario.Adversary`; any adaptive strategy in the composition
    selects :class:`AdaptiveAdversary`, which handles both kinds side by
    side.  What either engine costs per event is decided by its capability
    flags, not by its class: the kernel consults ``defer`` only under
    :attr:`~.scenario.Adversary.defers_events` (always set by an adaptive
    strategy) and ``deliveries`` only under
    :attr:`~.scenario.Adversary.faults_links`.
    """
    if any(isinstance(fault, ADAPTIVE_FAULT_TYPES) for fault in scenario.faults):
        return AdaptiveAdversary(scenario, rng)
    return Adversary(scenario, rng)


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
    "ADAPTIVE_FAULT_TYPES",
    "AdaptiveAdversary",
    "DelayPivotal",
    "SplitRounds",
    "TargetCoin",
    "adaptive_scenario_names",
    "build_adaptive_scenario",
    "build_adversary",
]
