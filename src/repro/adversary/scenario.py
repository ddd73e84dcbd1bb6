"""The declarative :class:`Scenario` model and its runtime :class:`Adversary`.

A :class:`Scenario` is pure data -- a named, ordered composition of the
fault primitives from :mod:`~repro.adversary.faults`, each of an exact type
in :data:`~repro.adversary.faults.FAULT_TYPES`.  It travels inside an
:class:`~repro.harness.config.ExperimentConfig` (pickled to workers, its
``repr`` hashed into sweep-plan fingerprints) and runs nothing by itself.

The :class:`Adversary` is the one per-run engine built from a scenario: it
buckets the primitives by type, owns the seeded random stream the fault
coin-flips draw from, observes the deliveries the adaptive strategies
decide on, and answers the two narrow questions the simulation kernel asks:

* :meth:`Adversary.deliveries` -- at message-send time, into which delivery
  delays (none = omitted, several = duplicated) does this send turn?
* :meth:`Adversary.defer` -- at event-dispatch time, should this event be
  postponed (per-process slowdowns, then the adaptive strategies)?

Neither question is asked of an adversary whose scenario cannot answer it
with anything but "unchanged": the engine declares once, at construction,
which hooks it can ever fire (:attr:`Adversary.defers_events`,
:attr:`Adversary.faults_links`, :attr:`Adversary.corrupts`) and the kernel
hoists those flags into its loop -- see "What a scenario costs" in
``docs/adversary.md``.

Crash-recovery outages are not consulted per event; they are installed once
as ``PROCESS_PAUSE`` / ``PROCESS_RECOVER`` entries
(:class:`~repro.sim.events.EventKind`) in the kernel's queue.  A kernel
with no adversary installed never pays more than one local boolean test per
event and one per send.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sim.events import EventKind
from ..sim.process import ProcessState
from .faults import (
    FAULT_TYPES,
    CrashRecovery,
    DelayPivotal,
    MessageCorruption,
    MessageDuplication,
    MessageOmission,
    MessageReordering,
    PartitionWindow,
    ProcessSlowdown,
    SplitRounds,
    TamperedPayload,
    TargetCoin,
    check_outages_disjoint,
    mutate_payload,
)

_INF = math.inf
_DELIVERY = int(EventKind.MESSAGE_DELIVERY)


@dataclass(frozen=True)
class Scenario:
    """A named, declarative composition of fault primitives.

    Scenarios are plain data with a stable value-only ``repr``: equal
    scenarios compare and hash equal, pickle round-trips preserve them, and
    the ``repr`` entering a sweep-plan fingerprint pins the exact fault
    behaviour of every sharded run.
    """

    name: str
    faults: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        faults = tuple(self.faults)
        for fault in faults:
            if type(fault) not in FAULT_TYPES:
                raise ValueError(
                    f"unknown fault primitive {fault!r}; scenarios compose exactly "
                    f"{sorted(t.__name__ for t in FAULT_TYPES)}"
                )
        # Each CrashRecovery schedule validates itself; overlapping outages
        # *across* schedules would be just as silently mis-handled by the
        # kernel's pid-keyed pause machinery, so validate the union too.
        check_outages_disjoint(
            [
                outage
                for fault in faults
                if isinstance(fault, CrashRecovery)
                for outage in fault.outages
            ]
        )
        object.__setattr__(self, "faults", faults)

    @property
    def liveness_preserving(self) -> bool:
        """Whether every fault only delays progress (no message is ever lost).

        Liveness-preserving scenarios keep the paper's termination guarantee
        intact (asynchrony already allows arbitrary delays); scenarios that
        can lose messages void it, and only safety remains guaranteed.
        """
        return all(fault.liveness_preserving for fault in self.faults)

    def describe(self) -> str:
        """A short human-readable summary (name plus fault kinds)."""
        if not self.faults:
            return f"{self.name} (fault-free)"
        kinds = ", ".join(type(fault).__name__ for fault in self.faults)
        return f"{self.name} ({kinds})"

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid any fault names explicitly, sorted and deduplicated."""
        pids: set = set()
        for fault in self.faults:
            touched = getattr(fault, "touched_pids", None)
            if touched is not None:
                pids.update(touched())
        return tuple(sorted(pids))


class Adversary:
    """The runtime fault-injection engine the kernel consults.

    One adversary serves one simulation run: it is built from a scenario
    and a dedicated :class:`random.Random` stream (derived from the run's
    master seed), installed into a kernel with
    :meth:`~repro.sim.kernel.SimulationKernel.install_adversary`, and never
    crosses process boundaries -- the picklable artifact is the scenario.
    """

    def __init__(self, scenario: Scenario, rng: random.Random) -> None:
        self.scenario = scenario
        self._rng = rng
        self._kernel = None
        buckets: Dict[type, list] = {fault_type: [] for fault_type in FAULT_TYPES}
        for fault in scenario.faults:
            buckets[type(fault)].append(fault)
        self._omissions: List[MessageOmission] = buckets[MessageOmission]
        self._duplications: List[MessageDuplication] = buckets[MessageDuplication]
        self._reorderings: List[MessageReordering] = buckets[MessageReordering]
        self._corruptions: List[MessageCorruption] = buckets[MessageCorruption]
        self._partitions: List[PartitionWindow] = buckets[PartitionWindow]
        self._slowdowns: List[ProcessSlowdown] = buckets[ProcessSlowdown]
        self._crash_recoveries: List[CrashRecovery] = buckets[CrashRecovery]
        self._delay_pivotal: List[DelayPivotal] = buckets[DelayPivotal]
        self._target_coins: List[TargetCoin] = buckets[TargetCoin]
        self._split_rounds: List[SplitRounds] = buckets[SplitRounds]
        self._adaptive = bool(self._delay_pivotal or self._target_coins or self._split_rounds)
        #: Whether the kernel needs to consult :meth:`corrupt` per send.
        self.corrupts = bool(self._corruptions)
        #: Whether the kernel needs to offer every dispatched event to
        #: :meth:`defer`.  Fixed before the run starts: only a slowdown or
        #: an adaptive strategy can make the verdict non-zero.
        self.defers_events = bool(self._slowdowns) or self._adaptive
        #: Whether the kernel needs to route every send through
        #: :meth:`deliveries` (and, under :attr:`corrupts`, :meth:`corrupt`).
        #: With every link-fault bucket empty the verdict is ``(delay,)``
        #: before the random stream is touched, which is exactly what the
        #: kernel's plain send schedules.
        self.faults_links = bool(
            self._partitions
            or self._omissions
            or self._reorderings
            or self._duplications
            or self._corruptions
        )
        #: Keys of the events a slowdown has postponed once already.
        self._slowed: set = set()
        #: Delivery key -> times this delivery has been adaptively deferred.
        self._defer_counts: Dict[int, int] = {}
        #: (tag, round, phase) -> {est: observed deliveries carrying it}.
        self._est_counts: Dict[tuple, Dict[object, int]] = {}
        #: split-group index -> highest round number observed from it.
        self._group_rounds: Dict[int, int] = {}
        self._group_of: Dict[int, int] = {}
        for split in self._split_rounds:
            for index, group in enumerate(split.groups):
                for pid in group:
                    self._group_of[pid] = index
        #: Every adaptive intervention, as ``(now, strategy, action,
        #: sender, dest)`` tuples (action is "defer" or "omit") -- the
        #: inspectable trace the strategy unit tests assert against.
        self.deferral_log: List[Tuple[float, str, str, int, int]] = []

    # ------------------------------------------------------------ installation
    def install(self, kernel) -> None:
        """Bind to ``kernel``: validate pids and schedule crash-recovery events.

        Called by :meth:`SimulationKernel.install_adversary` after every
        process is registered, so a scenario naming a pid the run does not
        have fails here with a clear :class:`ValueError` instead of silently
        never firing.
        """
        known = set(kernel.process_ids())
        unknown = sorted(set(self.scenario.touched_pids()) - known)
        if unknown:
            raise ValueError(
                f"scenario {self.scenario.name!r} targets process ids {unknown}, "
                f"but this run only has processes {sorted(known)}"
            )
        # Weak: the kernel owns its adversary, never the other way round.
        self._kernel = weakref.proxy(kernel)
        for schedule in self._crash_recoveries:
            for outage in schedule.outages:
                kernel.schedule_pause(outage.pid, outage.down_at, outage.up_at)

    # ------------------------------------------------------- send-time verdict
    def deliveries(self, sender: int, dest: int, now: float, delay: float) -> Tuple[float, ...]:
        """The delivery delays one ``sender -> dest`` send turns into.

        An empty tuple means the message is omitted; more than one entry
        means duplicates (each extra copy re-samples its transit delay from
        the network's delay model).  Self-addressed messages are never
        faulted.  Faults are applied in a fixed order -- partitions, then
        omission, then reordering, then duplication -- and every random
        choice draws from the adversary's own stream, in deterministic
        event order.  The kernel asks only under :attr:`faults_links`; asked
        anyway, a scenario without link faults answers ``(delay,)`` and
        draws nothing.
        """
        if sender == dest:
            return (delay,)
        # The hold is the time until the last active severing partition
        # heals; it applies to the original *and* to every duplicate, so no
        # copy can sneak across a partition that is still up.
        hold = 0.0
        for partition in self._partitions:
            if partition.severs(sender, dest, now):
                if partition.mode == "drop":
                    return ()
                hold = max(hold, partition.end - now)
        for omission in self._omissions:
            if omission.applies(sender, dest, now) and self._rng.random() < omission.probability:
                return ()
        for reordering in self._reorderings:
            if reordering.applies(sender, dest, now) and self._rng.random() < reordering.probability:
                delay *= reordering.inflation
        delays = [hold + delay]
        for duplication in self._duplications:
            if duplication.applies(sender, dest, now) and self._rng.random() < duplication.probability:
                network = self._kernel.network
                delays.extend(
                    hold + network.sample_delay(sender=sender, dest=dest)
                    for _ in range(duplication.copies)
                )
        return tuple(delays)

    # ----------------------------------------------------- payload corruption
    def corrupt(self, sender: int, dest: int, payload, now: float):
        """The (possibly tampered) payload one ``sender -> dest`` send carries.

        Consulted by the kernel only when the scenario holds
        :class:`~repro.adversary.faults.MessageCorruption` faults (the
        :attr:`corrupts` flag), *after* :meth:`deliveries` ruled the send is
        delivered at all -- so scenarios without corruption draw exactly the
        random sequence they always did.  An authenticated mutation comes
        back wrapped in :class:`~repro.adversary.faults.TamperedPayload`
        (the receiver will drop it); an unauthenticated one comes back bare.
        Self-addressed messages are never corrupted.
        """
        if sender == dest:
            return payload
        for corruption in self._corruptions:
            if corruption.applies(sender, dest, now) and self._rng.random() < corruption.probability:
                mutated = mutate_payload(payload)
                if mutated is payload:
                    return payload
                if corruption.authenticated:
                    return TamperedPayload(original=payload, mutated=mutated)
                return mutated
        return payload

    #: Event kinds a slowdown may postpone: the process's own steps and its
    #: deliveries.  Control events (crash, pause, recover) must never be
    #: deferred -- postponing a pause past its matching recover would strand
    #: the process paused forever, and deferring a crash would let a
    #: slowdown rewrite the failure pattern.
    _DEFERRABLE = frozenset({EventKind.PROCESS_START, EventKind.STEP_RESUME, EventKind.MESSAGE_DELIVERY})

    # --------------------------------------------------- dispatch-time verdict
    def defer(self, kind: int, pid: int, payload, key: int, now: float) -> float:
        """Extra delay to postpone one dispatched entry by (0.0 = none).

        The entry is the kernel's flat ``(kind, pid, payload)``; a delivery's
        payload is its :class:`~repro.network.message.Message`.  ``key`` is
        the heap key the entry was first queued under: the kernel
        offers a re-queued entry again under the same key, which is how one
        event is told apart from the next.

        Per-process slowdowns answer first: each step or delivery event of a
        slowed process inside its window is postponed exactly once (the
        kernel re-queues it and offers it again; the second offer passes
        through), so a slowdown stretches the process's schedule without
        ever starving it.  A message delivery no slowdown postpones is then
        observed (estimate counts per exchange instance, per-group round
        progress) and offered to the adaptive strategies in a fixed order
        -- delay-pivotal, target-coin, split-rounds -- and the first that
        wants it wins.  A finite verdict re-queues the delivery (per-event
        deferral counts bound how often); an infinite one drops it at
        dispatch, which the kernel accounts as an omission.  No adaptive
        decision draws randomness.  The kernel asks only under
        :attr:`defers_events`; asked anyway, a scenario with neither
        slowdowns nor strategies answers 0.0.
        """
        if self._slowdowns:
            if key in self._slowed:
                self._slowed.discard(key)
            elif kind in self._DEFERRABLE:
                extra = 0.0
                for slowdown in self._slowdowns:
                    if slowdown.defers(pid, now):
                        extra += slowdown.extra_delay
                if extra > 0.0:
                    self._slowed.add(key)
                    return extra
        if not self._adaptive or kind != _DELIVERY:
            return 0.0
        message = payload
        payload = getattr(message, "payload", None)
        counts = self._defer_counts
        count = counts.get(key)
        if count is None:
            # First offer of this delivery: fold it into the observed state
            # exactly once, no matter how often it is subsequently deferred.
            count = 0
            self._observe(message, payload)
        verdict, strategy = self._strategy_verdict(pid, message, payload, now, count)
        if verdict == 0.0:
            counts.pop(key, None)
            return 0.0
        sender = getattr(message, "sender", -1)
        if verdict == _INF:
            counts.pop(key, None)
            self.deferral_log.append((now, strategy, "omit", sender, pid))
            return verdict
        counts[key] = count + 1
        self.deferral_log.append((now, strategy, "defer", sender, pid))
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
        self, dest: int, message, payload, now: float, count: int
    ) -> Tuple[float, str]:
        """The first adaptive strategy that wants this delivery, in order."""
        for pivotal in self._delay_pivotal:
            if (
                pivotal.start <= now < pivotal.end
                and count < pivotal.max_deferrals
                and self._is_pivotal(dest, message)
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
                message, dest
            ):
                return split.extra_delay, "split-rounds"
        return 0.0, ""

    def _is_pivotal(self, dest: int, message) -> bool:
        """Whether delivering ``message`` to ``dest`` now would complete a wait.

        A pure probe: the receiver's wait predicate is evaluated against
        its current mailbox and against a copy with this message appended.
        Neither call changes any later answer: by the wait-predicate
        contract (see :class:`~repro.sim.context.WaitEffect`) a result
        depends only on the contents of the list it is given, so the copy
        -- a different list object -- can never be served from, or leak
        into, whatever a predicate memoises for the live mailbox.
        """
        proc = self._kernel.process(dest)
        if proc.paused or proc.state is not ProcessState.BLOCKED:
            return False
        predicate = proc.wait_predicate
        if predicate is None:
            return False
        mailbox = proc.mailbox
        if predicate(mailbox) is not None:
            return False
        return predicate(list(mailbox) + [message]) is not None

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


__all__ = ["Adversary", "Scenario"]
