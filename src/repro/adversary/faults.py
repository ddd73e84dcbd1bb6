"""The fault primitives composed into adversarial scenarios.

Every primitive is a frozen dataclass of plain values (probabilities, pid
tuples, time windows), so primitives are picklable, hashable and have
stable value-only ``repr``\\ s -- the property that lets a
:class:`~repro.adversary.scenario.Scenario` enter a
:class:`~repro.harness.distributed.SweepPlan` fingerprint and keep sharded
adversarial sweeps bit-identical to single-host ones.

The primitives describe *what* goes wrong; *when* it goes wrong for a
specific execution is decided by the runtime
:class:`~repro.adversary.scenario.Adversary`, which draws every random
choice (per-message omission, duplication, reordering) from a dedicated
seeded kernel stream, so two runs of the same configuration inject the
identical faults.  Seven primitives are declarative coin flips and
windows; the three adaptive strategies (:class:`DelayPivotal`,
:class:`TargetCoin`, :class:`SplitRounds`) draw nothing and decide from
what the engine observes of the run.  :data:`FAULT_TYPES` is the closed
set of all ten: a scenario holds these exact types and no subclass.

Self-addressed messages are never faulted: a process's channel to itself is
local, and the paper's ``broadcast`` macro relies on a process hearing its
own value.  The crash/omission/timing primitives cannot forge a payload;
the one deliberate exception is :class:`MessageCorruption`, which models a
Byzantine channel -- together with the receiver-side authentication model
(see :class:`TamperedPayload`) that decides whether a mutation is dropped
like an omission or actually believed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

#: The two partition semantics (see :class:`PartitionWindow`).
PARTITION_MODES = ("heal", "drop")


def _normalised_pids(pids: object, what: str) -> Tuple[int, ...]:
    """Validate and sort a collection of process ids into a tuple."""
    try:
        values = tuple(sorted(int(pid) for pid in pids))  # type: ignore[union-attr]
    except TypeError as error:
        raise ValueError(f"{what} must be an iterable of process ids, got {pids!r}") from error
    if any(pid < 0 for pid in values):
        raise ValueError(f"{what} must be non-negative process ids, got {values}")
    if len(set(values)) != len(values):
        raise ValueError(f"{what} holds duplicate process ids: {values}")
    return values


def _disjoint_groups(groups: Tuple[Tuple[int, ...], ...], what: str) -> Tuple[Tuple[int, ...], ...]:
    """Validate two or more non-empty, disjoint pid groups; normalise each."""
    if len(groups) < 2:
        raise ValueError(f"a {what} needs at least two groups")
    normalised = tuple(_normalised_pids(group, f"{what} group") for group in groups)
    seen: set = set()
    for group in normalised:
        if not group:
            raise ValueError(f"{what} groups must be non-empty")
        overlap = seen.intersection(group)
        if overlap:
            raise ValueError(f"{what} groups must be disjoint; {sorted(overlap)} repeated")
        seen.update(group)
    return normalised


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")


def _check_window(start: float, end: float) -> None:
    if not (math.isfinite(start) and start >= 0):
        raise ValueError(f"window start must be finite and >= 0, got {start}")
    if not end > start:
        raise ValueError(f"window end must be > start, got [{start}, {end})")


def _check_extra_delay(extra_delay: float) -> None:
    # An infinite deferral is a drop in disguise, and NaN never compares.
    if not (math.isfinite(extra_delay) and extra_delay > 0):
        raise ValueError(f"extra_delay must be finite and > 0, got {extra_delay}")


@dataclass(frozen=True)
class LinkFault:
    """Base of the per-message faults (omission, duplication, reordering).

    ``senders``/``receivers`` restrict the fault to messages whose sender /
    destination is in the given set (``None`` = any process), and the fault
    is only active for sends inside ``[start, end)``.
    """

    probability: float = 1.0
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        _check_window(self.start, self.end)
        for attribute in ("senders", "receivers"):
            value = getattr(self, attribute)
            if value is not None:
                object.__setattr__(self, attribute, _normalised_pids(value, attribute))

    def applies(self, sender: int, dest: int, time: float) -> bool:
        """Whether this fault may affect a ``sender -> dest`` send at ``time``."""
        if not self.start <= time < self.end:
            return False
        if self.senders is not None and sender not in self.senders:
            return False
        return self.receivers is None or dest in self.receivers

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid this fault names explicitly (for install-time validation)."""
        return (self.senders or ()) + (self.receivers or ())

    @property
    def liveness_preserving(self) -> bool:
        """Whether the fault can only delay progress, never prevent it."""
        return True


@dataclass(frozen=True)
class MessageOmission(LinkFault):
    """Drop each matching message independently with ``probability``.

    This breaks the reliable-channel assumption of the paper's model, so
    termination is no longer guaranteed -- which is exactly what experiment
    e9 measures.  Safety must survive regardless.
    """

    @property
    def liveness_preserving(self) -> bool:
        """Omission can starve a wait forever, so liveness is not preserved."""
        return self.probability == 0.0


@dataclass(frozen=True)
class MessageDuplication(LinkFault):
    """Deliver ``copies`` extra copies of each matching message.

    Each copy transits independently (its delay is re-sampled from the
    network's delay model), so duplicates typically arrive out of order
    with the original -- the classic at-least-once channel.
    """

    copies: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")


@dataclass(frozen=True)
class MessageReordering(LinkFault):
    """Inflate the transit delay of each matching message by ``inflation``.

    Because other messages keep their sampled delays, inflated messages are
    overtaken by later sends -- an aggressive reordering adversary while
    still delivering every message (liveness-preserving).
    """

    inflation: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inflation <= 1.0:
            raise ValueError(f"inflation must be > 1, got {self.inflation}")


@dataclass(frozen=True)
class PartitionWindow:
    """Sever the links between process groups for virtual times ``[start, end)``.

    ``groups`` are disjoint pid sets; a message crossing from one group to a
    *different* group while the window is active is affected (pids in no
    group communicate freely).  With mode ``"heal"`` the message is held and
    delivered once the partition heals (delivery at ``end`` plus its sampled
    delay); with mode ``"drop"`` it is lost outright.
    """

    groups: Tuple[Tuple[int, ...], ...]
    start: float = 0.0
    end: float = math.inf
    mode: str = "heal"

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}; choose from {PARTITION_MODES}")
        _check_window(self.start, self.end)
        if self.mode == "heal" and not math.isfinite(self.end):
            raise ValueError("a healing partition needs a finite end time")
        object.__setattr__(self, "groups", _disjoint_groups(self.groups, "partition"))

    def _group_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return -1

    def severs(self, sender: int, dest: int, time: float) -> bool:
        """Whether the link ``sender -> dest`` is cut at ``time``."""
        if not self.start <= time < self.end:
            return False
        sender_group = self._group_of(sender)
        if sender_group < 0:
            return False
        dest_group = self._group_of(dest)
        return dest_group >= 0 and dest_group != sender_group

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid named by the partition groups."""
        return tuple(pid for group in self.groups for pid in group)

    @property
    def liveness_preserving(self) -> bool:
        """A healing partition only delays; a dropping one loses messages."""
        return self.mode == "heal"


@dataclass(frozen=True)
class ProcessSlowdown:
    """Defer every kernel step of the targeted processes by ``extra_delay``.

    Each :class:`~repro.sim.events.StepResume` (and delivery) dispatched to a
    slowed process inside the window is postponed once by ``extra_delay``
    virtual-time units -- the process still takes every step, just later,
    which models a slow or overloaded replica without violating any model
    assumption.
    """

    pids: Tuple[int, ...]
    extra_delay: float = 1.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "pids", _normalised_pids(self.pids, "slowdown pids"))
        if not self.pids:
            raise ValueError("a slowdown needs at least one process id")
        _check_extra_delay(self.extra_delay)
        _check_window(self.start, self.end)

    def defers(self, pid: int, time: float) -> bool:
        """Whether an event of process ``pid`` is deferred at ``time``."""
        return pid in self.pids and self.start <= time < self.end

    def touched_pids(self) -> Tuple[int, ...]:
        """The slowed pids (for install-time validation)."""
        return self.pids

    @property
    def liveness_preserving(self) -> bool:
        """Slowdowns only delay steps, never suppress them."""
        return True


@dataclass(frozen=True)
class Outage:
    """One crash-recovery episode: ``pid`` is down during ``[down_at, up_at)``."""

    pid: int
    down_at: float
    up_at: float

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ValueError(f"pid must be >= 0, got {self.pid}")
        _check_window(self.down_at, self.up_at)
        if not math.isfinite(self.up_at):
            raise ValueError("an outage must recover at a finite time; use "
                             "FailurePattern for permanent crashes")


def check_outages_disjoint(outages) -> None:
    """Reject overlapping outages of one process.

    The kernel's pause/recover machinery keys on the pid alone, so a pause
    nested inside another outage would be silently dropped and the first
    recover would truncate the longer outage.  Enforced per
    :class:`CrashRecovery` schedule at construction and across a whole
    scenario's schedules at :meth:`~repro.adversary.scenario.Scenario`
    construction time.
    """
    by_pid: dict = {}
    for outage in outages:
        by_pid.setdefault(outage.pid, []).append(outage)
    for pid, episodes in by_pid.items():
        episodes.sort(key=lambda outage: outage.down_at)
        for previous, current in zip(episodes, episodes[1:]):
            if current.down_at < previous.up_at:
                raise ValueError(
                    f"process {pid} has overlapping outages "
                    f"[{previous.down_at}, {previous.up_at}) and "
                    f"[{current.down_at}, {current.up_at})"
                )


@dataclass(frozen=True)
class CrashRecovery:
    """A schedule of transient process outages (crash *and recover*).

    Generalises the crash-only :class:`~repro.cluster.failures.FailurePattern`:
    during an outage the process takes no steps; its pending steps and
    deliveries are buffered and replayed at recovery, so the episode is
    indistinguishable from the process being arbitrarily slow -- which the
    asynchronous model already permits, making this primitive
    liveness-preserving.  Processes that must *stay* down belong in a
    ``FailurePattern``, not here.
    """

    outages: Tuple[Outage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        outages = tuple(
            outage if isinstance(outage, Outage) else Outage(*outage) for outage in self.outages
        )
        if not outages:
            raise ValueError("a crash-recovery schedule needs at least one outage")
        check_outages_disjoint(outages)
        object.__setattr__(
            self, "outages", tuple(sorted(outages, key=lambda o: (o.pid, o.down_at)))
        )

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid with at least one outage."""
        return tuple(sorted({outage.pid for outage in self.outages}))

    @property
    def liveness_preserving(self) -> bool:
        """Every outage recovers, so progress is only delayed."""
        return True


@dataclass(frozen=True)
class TamperedPayload:
    """A corrupted payload whose authentication no longer verifies.

    When an *authenticated* :class:`MessageCorruption` mutates a message,
    the mutation is delivered wrapped in this marker: the receiver's
    message-scanning code (see :func:`repro.core.pattern.scan_mailbox`)
    models signature verification by discarding it, turning the corruption
    into an omission-like fault.  Unauthenticated corruption delivers the
    bare mutated payload instead -- genuine Byzantine behaviour.
    """

    original: Any
    mutated: Any


def mutate_payload(payload: Any) -> Any:
    """The adversary's payload mutation: flip the binary content.

    Duck-typed over the algorithm payloads: a dataclass carrying a binary
    ``est`` (phase messages) or ``value`` (decide messages) comes back with
    that bit flipped.  Payloads with nothing to flip (``⊥`` estimates,
    non-dataclass payloads) are returned unchanged, and the corruption is
    then a no-op rather than a counted fault.
    """
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        for name in ("est", "value"):
            if hasattr(payload, name):
                bit = getattr(payload, name)
                if bit in (0, 1):
                    return dataclasses.replace(payload, **{name: 1 - bit})
    return payload


@dataclass(frozen=True)
class MessageCorruption(LinkFault):
    """Mutate each matching message's payload with ``probability``.

    The Byzantine channel primitive: a corrupted message transits normally
    but carries :func:`mutate_payload`'s flipped content.  With
    ``authenticated`` (the default) the receiver detects the tampering and
    drops the message -- the paper's authenticated-channel assumption, under
    which corruption degrades to omission and safety must survive.  With
    ``authenticated=False`` the mutation is believed, which genuinely breaks
    the model (tests use it to show authentication is load-bearing).
    """

    authenticated: bool = True

    @property
    def liveness_preserving(self) -> bool:
        """Corruption can lose (authenticated) or poison (forged) messages.

        An authenticated mutation is dropped by the receiver, so it starves
        waits exactly like an omission; a forged one can derail the protocol
        outright.  Either way, any positive probability voids the
        termination guarantee.
        """
        return self.probability == 0.0


# ------------------------------------------------------------ adaptive strategies
# The strategies below condition their verdicts on the observed execution
# instead of on a coin: the engine watches every dispatched delivery and
# asks them, in this order, whether to hold it back.  Each is still plain
# data; the decisions live in :meth:`~repro.adversary.scenario.Adversary.defer`.


def _check_strategy(extra_delay: float, max_deferrals: int) -> None:
    _check_extra_delay(extra_delay)
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
        object.__setattr__(self, "groups", _disjoint_groups(self.groups, "split"))

    def touched_pids(self) -> Tuple[int, ...]:
        """Every pid named by the split groups."""
        return tuple(pid for group in self.groups for pid in group)

    @property
    def liveness_preserving(self) -> bool:
        """Bounded deferrals desynchronise the groups but starve nobody."""
        return True


#: Every primitive type a :class:`~repro.adversary.scenario.Scenario`
#: accepts, by exact type: the runtime engine buckets on ``type(fault)``.
FAULT_TYPES = (
    MessageOmission,
    MessageDuplication,
    MessageReordering,
    MessageCorruption,
    PartitionWindow,
    ProcessSlowdown,
    CrashRecovery,
    DelayPivotal,
    TargetCoin,
    SplitRounds,
)
