"""The event kinds of the discrete-event simulation kernel.

The kernel keeps its pending work flat and has no other event form:
process steps and faults as ``(time, sequence, kind, pid, payload)``
tuples, messages in flight -- in a heap of their own -- as 30-byte packed
``(time, key, dest, origin, send_time)`` entries, where the key is the
sequence number with the ``msg_id`` in its low 32 bits and the origin is an
index into the kernel's ``(sender, payload)`` pairs, one of which a
broadcast shares across its destinations.  Tuple and ``bytes`` comparison
run in C (a packed entry orders bytewise as its ``(time, key)`` would) and
dispatch is an integer test on ``kind``, one of the :class:`EventKind`
members.  The sequence number, drawn from one counter for both heaps,
breaks ties deterministically, so executions are reproducible even when
several events share a virtual timestamp (and, because sequences are unique
and a key orders as its sequence, no later field ever takes part in a
comparison, within a heap or between the two heads).

Whoever looks at a dispatched entry -- the fault-injection adversary, a
schedule controller, the trace -- sees the same ``(kind, pid, payload)``
fields: the payload is the value sent into a resumed step, the
:class:`~repro.network.message.Message` of a delivery, and ``None`` for a
start and the three fault events.  :func:`describe_entry` is their trace
text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional


class EventKind(enum.IntEnum):
    """The dense dispatch index of each kernel event kind.

    The order is load-bearing: the kernel loop takes ``kind <= STEP_RESUME``
    for a process step (first or resumed) and indexes its three fault
    handlers with ``kind - PROCESS_CRASH`` -- integer tests instead of a
    type-keyed dict lookup or an isinstance chain.

    ``PROCESS_PAUSE`` begins a transient outage: unlike ``PROCESS_CRASH``,
    the process's state (generator, mailbox, pending wait) is preserved, and
    the steps and deliveries that reach it while paused are buffered and
    replayed at the matching ``PROCESS_RECOVER``.  Used by the
    crash-recovery fault primitive
    (:class:`~repro.adversary.faults.CrashRecovery`).
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

#: The CamelCase name each kind carries in trace text (``ProcessStart``,
#: ``StepResume``, ...), indexable by ``kind``.
_TRACE_NAMES = tuple(name.title().replace("_", "") for name in EVENT_KIND_NAMES)


def describe_entry(kind: int, pid: int, payload: Any) -> str:
    """Human-readable description of one flat queue entry (for traces).

    ``StepResume(pid=0, value=None)`` for a resumed step,
    ``MessageDelivery(pid=1, message=<the message's payload>)`` for a
    delivery and ``ProcessCrash(pid=2)`` for an entry without a payload.
    """
    name = _TRACE_NAMES[kind]
    if kind == EventKind.STEP_RESUME:
        return f"{name}(pid={pid!r}, value={payload!r})"
    if kind == EventKind.MESSAGE_DELIVERY:
        return f"{name}(pid={pid!r}, message={getattr(payload, 'payload', payload)!r})"
    return f"{name}(pid={pid!r})"


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
