"""Event types used by the discrete-event simulation kernel.

The kernel's hot path keeps its pending work as flat tuples (see
:data:`EventKind` and the converters below): process steps and faults as
``(time, sequence, kind, pid, payload)``, messages in flight -- in a heap of
their own -- as ``(time, sequence, dest, sender, payload, send_time,
msg_id)``.  Tuple comparison runs in C, nothing is allocated per entry beyond
the tuple itself, and dispatch is an integer test on ``kind``.  The sequence
number, drawn from one counter for both heaps, breaks ties deterministically,
so executions are reproducible even when several events share a virtual
timestamp (and, because sequences are unique, no later field ever takes part
in a comparison, within a heap or between the two heads).

The :class:`Event` dataclasses remain the public, adversary-facing API:
anything that inspects or defers events -- the fault-injection adversary,
traces, tests -- sees real :class:`Event` objects, built at the boundary by
:func:`entry_event` and flattened back by :func:`event_entry_fields`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class Event:
    """Base class for all kernel events."""

    __slots__ = ()


@dataclass(frozen=True)
class StepResume(Event):
    """Resume a process generator, sending ``value`` into it."""

    pid: int
    value: Any = None


@dataclass(frozen=True)
class MessageDelivery(Event):
    """Deliver a message object into a process mailbox."""

    pid: int
    message: Any = None


@dataclass(frozen=True)
class ProcessCrash(Event):
    """Crash a process: it takes no further step after this event."""

    pid: int


@dataclass(frozen=True)
class ProcessStart(Event):
    """Initial activation of a process generator."""

    pid: int


@dataclass(frozen=True)
class ProcessPause(Event):
    """Begin a transient outage: the process takes no steps until it recovers.

    Unlike :class:`ProcessCrash`, the process's state (generator, mailbox,
    pending wait) is preserved; steps and deliveries arriving while paused
    are buffered and replayed at the matching :class:`ProcessRecover`.  Used
    by the crash-recovery fault primitive
    (:class:`~repro.adversary.faults.CrashRecovery`).
    """

    pid: int


@dataclass(frozen=True)
class ProcessRecover(Event):
    """End a transient outage: replay the events buffered while paused."""

    pid: int


class EventKind(enum.IntEnum):
    """The dense dispatch index of each kernel event type.

    The order is load-bearing: the kernel loop takes ``kind <= STEP_RESUME``
    for a process step (first or resumed) and indexes its three fault
    handlers with ``kind - PROCESS_CRASH`` -- integer tests instead of a
    type-keyed dict lookup or an isinstance chain.
    """

    PROCESS_START = 0
    STEP_RESUME = 1
    MESSAGE_DELIVERY = 2
    PROCESS_CRASH = 3
    PROCESS_PAUSE = 4
    PROCESS_RECOVER = 5


#: Lower-case kind names indexable by a flat entry's ``kind`` int; used for
#: the structured ``data`` of ``event`` trace records without re-entering
#: the enum machinery per traced event.
EVENT_KIND_NAMES = tuple(kind.name.lower() for kind in EventKind)

#: Exact-type mapping Event class -> kind.  Subclasses of the public event
#: types are resolved (and cached) through their MRO by :func:`event_kind`,
#: mirroring how the kernel dispatches effect subclasses.
_KIND_BY_TYPE = {
    ProcessStart: EventKind.PROCESS_START,
    StepResume: EventKind.STEP_RESUME,
    MessageDelivery: EventKind.MESSAGE_DELIVERY,
    ProcessCrash: EventKind.PROCESS_CRASH,
    ProcessPause: EventKind.PROCESS_PAUSE,
    ProcessRecover: EventKind.PROCESS_RECOVER,
}

#: kind -> Event class, for boundary reconstruction.
_TYPE_BY_KIND = (
    ProcessStart,
    StepResume,
    MessageDelivery,
    ProcessCrash,
    ProcessPause,
    ProcessRecover,
)


def event_kind(event_type: type) -> EventKind:
    """The :class:`EventKind` of an event class (subclasses included).

    The exact-type lookup misses subclasses of the public event types, so
    walk the MRO once and cache the match -- the hot path stays a single
    dict hit afterwards.
    """
    try:
        return _KIND_BY_TYPE[event_type]
    except KeyError:
        for base in event_type.__mro__[1:]:
            kind = _KIND_BY_TYPE.get(base)
            if kind is not None:
                _KIND_BY_TYPE[event_type] = kind
                return kind
        raise TypeError(f"unknown event type: {event_type!r}") from None


def event_entry_fields(event: Event) -> Tuple[int, int, Any]:
    """Flatten a public :class:`Event` object into ``(kind, pid, payload)``.

    The payload slot carries :attr:`StepResume.value` /
    :attr:`MessageDelivery.message` and is ``None`` for the payload-free
    event types.
    """
    kind = event_kind(type(event))
    if kind is EventKind.STEP_RESUME:
        payload = event.value
    elif kind is EventKind.MESSAGE_DELIVERY:
        payload = event.message
    else:
        payload = None
    return (int(kind), event.pid, payload)


def entry_event(kind: int, pid: int, payload: Any) -> Event:
    """Reconstruct the public :class:`Event` object of one flat queue entry."""
    if kind == EventKind.STEP_RESUME:
        return StepResume(pid=pid, value=payload)
    if kind == EventKind.MESSAGE_DELIVERY:
        return MessageDelivery(pid=pid, message=payload)
    return _TYPE_BY_KIND[kind](pid=pid)


def describe_entry(kind: int, pid: int, payload: Any) -> str:
    """Human-readable description of one flat queue entry (for traces)."""
    return describe(entry_event(kind, pid, payload))


@dataclass(order=True)
class ScheduledEvent:
    """A queue entry: an :class:`Event` scheduled at a virtual ``time``.

    The kernel itself now queues flat tuples; this class remains as the
    public representation of "an event at a time" for tests and tooling
    (ordering semantics are identical to the kernel's tuples).
    """

    time: float
    sequence: int
    event: Event = field(compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ScheduledEvent(t={self.time:.6f}, seq={self.sequence}, {self.event!r})"


def describe(event: Event) -> str:
    """Return a short human-readable description of an event (for traces)."""
    name = type(event).__name__
    fields = dataclasses.fields(event) if dataclasses.is_dataclass(event) else ()
    parts = []
    for f in fields:
        value = getattr(event, f.name)
        if f.name == "message":
            value = getattr(value, "payload", value)
        parts.append(f"{f.name}={value!r}")
    return f"{name}({', '.join(parts)})"


@dataclass
class TraceEntry:
    """One recorded entry of a simulation trace.

    Entries are structured: besides the virtual ``time``, the per-trace
    ``sequence`` number, the entry ``kind`` (``send``, ``decide``,
    ``round``...), and the originating ``pid``, an entry may carry a
    machine-readable ``data`` mapping (JSON-serializable scalars only) with
    the fields the free-text ``detail`` used to encode -- the send's
    destination, the round number a span marker opens, the corrupted
    message's source.  :meth:`to_json` is the JSONL schema one line of a
    dumped trace holds (see :meth:`~repro.sim.trace.Trace.to_jsonl`).
    """

    time: float
    sequence: int
    kind: str
    pid: Optional[int]
    detail: str
    data: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        """The entry as one JSON-serializable mapping (the JSONL schema).

        Keys are stable and ordered: ``time``, ``seq``, ``kind``, ``pid``,
        ``detail``, plus ``data`` only when structured fields were recorded
        -- so dumped traces diff cleanly line by line.
        """
        payload: Dict[str, Any] = {
            "time": self.time,
            "seq": self.sequence,
            "kind": self.kind,
            "pid": self.pid,
            "detail": self.detail,
        }
        if self.data:
            payload["data"] = self.data
        return payload

    def format(self) -> str:
        """Render the entry as one aligned, human-readable trace line."""
        pid = "-" if self.pid is None else str(self.pid)
        return f"[{self.time:12.6f}] #{self.sequence:<8d} p{pid:<4s} {self.kind:<12s} {self.detail}"
