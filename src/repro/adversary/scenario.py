"""The declarative :class:`Scenario` model and its runtime :class:`Adversary`.

A :class:`Scenario` is pure data -- a named, ordered composition of the
fault primitives from :mod:`~repro.adversary.faults`.  It travels inside an
:class:`~repro.harness.runner.ExperimentConfig` (pickled to workers, its
``repr`` hashed into sweep-plan fingerprints) and runs nothing by itself.

The :class:`Adversary` is the per-run engine built from a scenario: it owns
the seeded random stream the fault coin-flips draw from, and it answers the
two narrow questions the simulation kernel asks:

* :meth:`Adversary.deliveries` -- at message-send time, into which delivery
  delays (none = omitted, several = duplicated) does this send turn?
* :meth:`Adversary.defer` -- at event-dispatch time, should this event be
  postponed (per-process slowdowns)?

Neither question is asked of an adversary whose scenario cannot answer it
with anything but "unchanged": the engine declares once, at construction,
which hooks it can ever fire (:attr:`Adversary.defers_events`,
:attr:`Adversary.faults_links`, :attr:`Adversary.corrupts`) and the kernel
hoists those flags into its loop -- see "What a scenario costs" in
``docs/adversary.md``.

Crash-recovery outages are not consulted per event; they are installed once
as :class:`~repro.sim.events.ProcessPause` / ``ProcessRecover`` events in
the kernel's queue.  A kernel with no adversary installed never pays more
than one local boolean test per event and one per send.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import List, Tuple

from ..sim.events import (
    Event,
    MessageDelivery,
    ProcessPause,
    ProcessRecover,
    ProcessStart,
    StepResume,
)
from . import faults as _faults
from .faults import (
    CrashRecovery,
    MessageCorruption,
    MessageDuplication,
    MessageOmission,
    MessageReordering,
    PartitionWindow,
    ProcessSlowdown,
    TamperedPayload,
    check_outages_disjoint,
    mutate_payload,
)


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
        # Read FAULT_TYPES through the module so primitives registered after
        # this module was imported (register_fault_type) are accepted too.
        known_types = _faults.FAULT_TYPES
        for fault in faults:
            if not isinstance(fault, known_types):
                raise ValueError(
                    f"unknown fault primitive {fault!r}; scenarios compose "
                    f"{sorted(t.__name__ for t in known_types)}"
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
        self._omissions: List[MessageOmission] = []
        self._duplications: List[MessageDuplication] = []
        self._reorderings: List[MessageReordering] = []
        self._corruptions: List[MessageCorruption] = []
        self._partitions: List[PartitionWindow] = []
        self._slowdowns: List[ProcessSlowdown] = []
        self._crash_recoveries: List[CrashRecovery] = []
        self._deferred_ids: set = set()
        buckets = {
            MessageOmission: self._omissions,
            MessageDuplication: self._duplications,
            MessageReordering: self._reorderings,
            MessageCorruption: self._corruptions,
            PartitionWindow: self._partitions,
            ProcessSlowdown: self._slowdowns,
            CrashRecovery: self._crash_recoveries,
        }
        for fault in scenario.faults:
            # Walk the MRO so user subclasses of the primitives (accepted by
            # Scenario's isinstance validation) land in their base's bucket,
            # mirroring how the kernel dispatches event subclasses.  The
            # MessageCorruption check must precede the LinkFault walk because
            # corruption subclasses LinkFault but needs its own bucket --
            # which the exact-class-first MRO walk already guarantees.
            bucket = next(
                (buckets[base] for base in type(fault).__mro__ if base in buckets), None
            )
            if bucket is not None:
                bucket.append(fault)
            elif not self._bucket_extra(fault):
                raise ValueError(f"no adversary handling for fault {fault!r}")
        #: Whether the kernel needs to consult :meth:`corrupt` per send.
        self.corrupts = bool(self._corruptions)
        #: Whether the kernel needs to offer every dispatched event to
        #: :meth:`defer`.  Fixed before the run starts: only a slowdown can
        #: make the base verdict non-zero.  A subclass that replaces the
        #: hook is always consulted -- the kernel cannot know what it does.
        self.defers_events = bool(self._slowdowns) or self._overrides("defer", Adversary)
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
        ) or self._overrides("deliveries", Adversary)

    def _overrides(self, hook: str, owner: type) -> bool:
        """Whether this engine's class replaced ``owner``'s ``hook`` method.

        Compared by attribute identity on the classes, so wrapping a hook in
        place (``bench/spans.py`` patches ``Adversary.defer`` by name) is not
        an override, while a subclass defining its own is.
        """
        return getattr(type(self), hook) is not getattr(owner, hook)

    def _bucket_extra(self, fault) -> bool:
        """Claim a fault primitive no base bucket handles (subclass seam).

        :class:`~repro.adversary.adaptive.AdaptiveAdversary` overrides this
        to take ownership of the adaptive strategy primitives; the base
        engine handles only the declarative ones and returns ``False``.
        """
        return False

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

    #: Event types a slowdown may postpone: the process's own steps and its
    #: deliveries.  Control events (crash, pause, recover) must never be
    #: deferred -- postponing a pause past its matching recover would strand
    #: the process paused forever, and deferring a crash would let a
    #: slowdown rewrite the failure pattern.
    _DEFERRABLE = (StepResume, MessageDelivery, ProcessStart)

    # --------------------------------------------------- dispatch-time verdict
    def defer(self, event: Event, now: float) -> float:
        """Extra delay to postpone ``event`` by at dispatch time (0.0 = none).

        Implements per-process slowdowns: each step or delivery event of a
        slowed process inside its window is postponed exactly once (the
        kernel re-queues it and offers it again; the second offer passes
        through), so a slowdown stretches the process's schedule without
        ever starving it.  The kernel asks only under :attr:`defers_events`;
        asked anyway, a scenario without slowdowns answers 0.0.
        """
        if not self._slowdowns:
            return 0.0
        key = id(event)
        if key in self._deferred_ids:
            self._deferred_ids.discard(key)
            return 0.0
        if not isinstance(event, self._DEFERRABLE):
            return 0.0
        extra = 0.0
        for slowdown in self._slowdowns:
            if slowdown.defers(event.pid, now):
                extra += slowdown.extra_delay
        if extra > 0.0:
            self._deferred_ids.add(key)
        return extra


__all__ = ["Adversary", "ProcessPause", "ProcessRecover", "Scenario"]
