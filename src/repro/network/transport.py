"""The message-passing substrate: reliable asynchronous channels.

The network connects every pair of processes with a reliable channel:
messages are never lost, corrupted or duplicated, but transit for an
arbitrary (randomly sampled) finite time, and are therefore not necessarily
delivered in send order.  A send is four things: a bounds check, one bump of
:attr:`TrafficStats.messages_sent` (which is also the ``msg_id``), one
``bytes_sent`` add and one draw from the delay cache.  The ``msg_id`` runs
from 1 and stays below :data:`MSG_ID_CAP` (``2**32``): the kernel carries it
in the low 32 bits of a message in flight's heap key, so the send that would
reach the cap -- the 4,294,967,296th of a run -- raises ``OverflowError``
instead.  The kernel packs the dest into 16 bits, so ``n`` is at most
:data:`DEST_CAP` (65,536).
:meth:`Network.transmit` is that send as one public call, and
:meth:`Network.prepare` / :meth:`Network.sample_delay` are its two halves;
the kernel's loop does the same four steps inline on handles it hoists once
per batch (the delay cache, refilled in place, and the counters), and builds
the :class:`~repro.network.message.Message` envelope itself, when the
delivery is dispatched.  ``tests/test_kernel_send.py`` holds the kernel to
:meth:`Network.transmit`.

Reliability can be revoked deliberately: when a fault-injection adversary
(:mod:`repro.adversary`) is installed in the kernel, sends it omits and
copies it duplicates are accounted here through :meth:`Network.record_fault`
-- the network's one adversary hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.rng import RandomSource
from .delays import DelayModel, UniformDelay
from .message import Message, payload_size

#: The bound ``msg_id`` stays below: one run makes at most ``MSG_ID_CAP - 1``
#: sends (see the module docstring).
MSG_ID_CAP = 1 << 32

#: The bound ``n`` stays at or below: the kernel packs a message in flight's
#: dest into 16 bits.  (At this size one all-to-all round would already pass
#: the ``msg_id`` cap.)
DEST_CAP = 1 << 16

#: Delay-cache refill sizing: first refill, and the cap the block doubles to.
_MIN_BATCH = 16
_MAX_BATCH = 512


@dataclass
class TrafficStats:
    """Aggregate traffic counters for one run.

    Plain integers only: per-process send counts live in
    :class:`~repro.sim.context.ProcessStats`.
    """

    #: Sends accounted so far; the ``msg_id`` of a send is this counter's
    #: value just after it, so ids run 1, 2, ... in send order.
    messages_sent: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    #: Adversary-injected channel faults (see :meth:`Network.record_fault`):
    #: sends dropped by omission/partition faults, extra copies injected by
    #: duplication faults, and payloads mutated by corruption faults.  All
    #: stay 0 without an installed adversary.
    messages_omitted: int = 0
    messages_duplicated: int = 0
    messages_corrupted: int = 0

    def as_dict(self) -> Dict[str, object]:
        """The counters as one JSON-ready mapping (used by metrics)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bytes_sent": self.bytes_sent,
            "messages_omitted": self.messages_omitted,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
        }


class Network:
    """Fully connected, reliable, asynchronous point-to-point network."""

    def __init__(
        self,
        n: int,
        delay_model: Optional[DelayModel] = None,
        rng: Optional[RandomSource] = None,
        self_delay_factor: float = 0.1,
    ) -> None:
        if n < 1:
            raise ValueError("network needs at least one process")
        if n > DEST_CAP:
            raise ValueError(
                f"Network(n={n:,}) exceeds the dest cap: a message in flight addresses "
                f"at most {DEST_CAP:,} processes"
            )
        # A negative factor puts a self-send's due time behind the clock (or
        # below 0, where the kernel's packed order is wrong), NaN makes it NaN.
        if not (math.isfinite(self_delay_factor) and self_delay_factor >= 0):
            raise ValueError(
                f"Network.self_delay_factor must be finite and >= 0, got {self_delay_factor!r}"
            )
        self.n = n
        self.delay_model = delay_model or UniformDelay()
        self._rng = (rng or RandomSource(0)).stream("network", "delays")
        self.self_delay_factor = self_delay_factor
        self.stats = TrafficStats()
        # Refillable delay cache: every send serves its raw model draw from
        # this block and refills it (see _refill) through
        # DelayModel.sample_batch, which pays the model's method frames once
        # per block instead of once per draw.  Because sample_batch is
        # exact-sequence and this network object is the delays stream's only
        # consumer, draw i of the run is the same float whether or not it
        # was prefetched.  The block starts small (many runs send only a
        # handful of messages) and doubles up to _MAX_BATCH under load.  The
        # list object never changes, so a caller may hoist its ``pop``.
        self._delay_cache: list = []
        self._batch = _MIN_BATCH

    def payload_bytes(self, payload: object) -> int:
        """The ``bytes_sent`` charge of one send of ``payload``.

        The kernel asks once per broadcast, for all its destinations.
        """
        return payload_size(payload)

    def _account(self, sender: int, dest: int, payload: object) -> int:
        """Validate the endpoints, count the send, and return its ``msg_id``."""
        n = self.n
        if not (0 <= sender < n and 0 <= dest < n):
            self.validate_endpoints(sender, dest)
        stats = self.stats
        msg_id = stats.messages_sent + 1
        if msg_id >= MSG_ID_CAP:
            self.refuse_msg_id(msg_id)
        stats.messages_sent = msg_id
        stats.bytes_sent += self.payload_bytes(payload)
        return msg_id

    def prepare(self, sender: int, dest: int, payload: object, time: float) -> Message:
        """Account for the send and build its message envelope."""
        return Message(sender, dest, payload, time, self._account(sender, dest, payload))

    def transmit(self, sender: int, dest: int, payload: object):
        """Account for one send and draw its transit time, in one call.

        Returns ``(msg_id, delay)``: the accounting of :meth:`prepare` and
        the draw of :meth:`sample_delay`, without the envelope.  This is the
        reference definition of a send; the kernel's loop performs the same
        steps inline and is tested against it.
        """
        return self._account(sender, dest, payload), self.sample_delay(sender, dest)

    def sample_delay(self, sender: int, dest: int) -> float:
        """Transit time for one message; self-addressed messages are faster."""
        cache = self._delay_cache
        if not cache:
            self._refill()
        delay = cache.pop()
        if sender == dest:
            delay *= self.self_delay_factor
        return delay

    def _refill(self) -> None:
        """Prefetch the next block of raw model draws into the empty cache.

        The cold path of every send (once per 16-512 sends).  The block is
        stored reversed so serving a draw is a ``list.pop()`` from the end,
        in draw order, and it is stored in place: the cache list is the same
        object for the network's whole life.
        """
        block = self.delay_model.sample_batch(self._rng, self._batch)
        block.reverse()
        self._delay_cache[:] = block
        if self._batch < _MAX_BATCH:
            self._batch *= 2

    def record_delivery(self, message: Message) -> None:
        """Account for a delivery (the kernel does this inline)."""
        self.stats.messages_delivered += 1

    def record_fault(self, kind: str) -> None:
        """Account one adversary-injected channel fault (called by the kernel).

        ``kind`` is ``"omitted"`` for a send the adversary dropped (omission
        or partition fault, or an adaptive adversary's infinite deferral),
        ``"duplicated"`` for each extra copy it injected, or ``"corrupted"``
        for each payload it mutated in transit.  This is the network's
        single adversary hook: the channel itself stays reliable unless the
        kernel's adversary says otherwise.
        """
        if kind == "omitted":
            self.stats.messages_omitted += 1
        elif kind == "duplicated":
            self.stats.messages_duplicated += 1
        elif kind == "corrupted":
            self.stats.messages_corrupted += 1
        else:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected 'omitted', 'duplicated' or 'corrupted'"
            )

    def validate_endpoints(self, sender: int, dest: int) -> None:
        """Raise ``ValueError`` naming the first of the two outside ``0..n-1``.

        The cold path of the bounds check every send makes.
        """
        for pid in (sender, dest):
            if not 0 <= pid < self.n:
                raise ValueError(f"process id {pid} out of range 0..{self.n - 1}")

    def refuse_msg_id(self, msg_id: int) -> None:
        """Raise ``OverflowError``: ``msg_id`` reached :data:`MSG_ID_CAP`.

        The cold path of the cap check every send makes, before it counts.
        """
        raise OverflowError(
            f"send #{msg_id:,} reaches the msg_id cap: one run makes fewer than "
            f"{MSG_ID_CAP:,} sends"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Network(n={self.n}, delay={self.delay_model!r}, "
            f"sent={self.stats.messages_sent})"
        )
