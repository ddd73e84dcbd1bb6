"""The message-passing substrate: reliable asynchronous channels.

The network connects every pair of processes with a reliable channel:
messages are never lost, corrupted or duplicated, but transit for an
arbitrary (randomly sampled) finite time, and are therefore not necessarily
delivered in send order.  The kernel calls :meth:`Network.transmit` once per
send -- bounds check, traffic accounting and the delay draw -- and builds
the :class:`~repro.network.message.Message` envelope itself, when the
delivery is dispatched; :meth:`Network.prepare` and
:meth:`Network.sample_delay` are the same two halves as separate public
calls.  This class also keeps the traffic counters used by the benchmark
harness.

Reliability can be revoked deliberately: when a fault-injection adversary
(:mod:`repro.adversary`) is installed in the kernel, sends it omits and
copies it duplicates are accounted here through :meth:`Network.record_fault`
-- the network's one adversary hook.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.rng import RandomSource
from .delays import DelayModel, UniformDelay
from .message import Message, payload_size

#: Delay-cache refill sizing: first refill, and the cap the block doubles to.
_MIN_BATCH = 16
_MAX_BATCH = 512

#: Payload-size memo cap; one entry per distinct payload object in flight.
_SIZE_MEMO_LIMIT = 8192

#: type -> __name__ memo for the sent_by_kind counter (process-wide; types
#: are immortal here, and distinct payload types are few).
_KIND_NAMES: dict = {}


@dataclass
class TrafficStats:
    """Aggregate traffic counters for one run."""

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
    sent_by_process: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    delivered_to_process: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    sent_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def as_dict(self) -> Dict[str, object]:
        """The counters as one JSON-ready mapping (used by metrics)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "bytes_sent": self.bytes_sent,
            "messages_omitted": self.messages_omitted,
            "messages_duplicated": self.messages_duplicated,
            "messages_corrupted": self.messages_corrupted,
            "sent_by_kind": dict(self.sent_by_kind),
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
        self.n = n
        self.delay_model = delay_model or UniformDelay()
        self._rng = (rng or RandomSource(0)).stream("network", "delays")
        self.self_delay_factor = self_delay_factor
        self.stats = TrafficStats()
        self._next_msg_id = 0
        # Refillable delay cache: transmit and sample_delay serve raw model
        # draws from this block and refill it (see _refill) through
        # DelayModel.sample_batch, which pays the model's method frames once
        # per block instead of once per draw.  Because sample_batch is
        # exact-sequence and this network object is the delays stream's only
        # consumer, draw i of the run is the same float whether or not it
        # was prefetched.  The block starts small (many runs send only a
        # handful of messages) and doubles up to _MAX_BATCH under load.
        self._delay_cache: list = []
        self._batch = _MIN_BATCH
        # Payload-size memo, keyed by payload object identity and holding a
        # strong reference (so an id can't be recycled while its entry
        # lives): a broadcast accounts the same payload object once per
        # destination, and those sends interleave with other processes', so
        # the recursive payload_size walk runs once per object instead of
        # once per destination.  Bounded to keep long sweeps from hoarding
        # dead payloads.
        self._size_memo: Dict[int, tuple] = {}

    def _account(self, sender: int, dest: int, payload: object) -> int:
        """Validate the endpoints, count the send, and return its ``msg_id``."""
        n = self.n
        if not (0 <= sender < n and 0 <= dest < n):
            self._validate_pid(sender)
            self._validate_pid(dest)
        msg_id = self._next_msg_id = self._next_msg_id + 1
        memo = self._size_memo
        entry = memo.get(id(payload))
        if entry is not None and entry[0] is payload:
            size = entry[1]
        else:
            size = payload_size(payload)
            if len(memo) >= _SIZE_MEMO_LIMIT:
                memo.clear()
            memo[id(payload)] = (payload, size)
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        stats.sent_by_process[sender] += 1
        kind = _KIND_NAMES.get(type(payload))
        if kind is None:
            kind = _KIND_NAMES[type(payload)] = type(payload).__name__
        stats.sent_by_kind[kind] += 1
        return msg_id

    def prepare(self, sender: int, dest: int, payload: object, time: float) -> Message:
        """Account for the send and build its message envelope."""
        return Message(sender, dest, payload, time, self._account(sender, dest, payload))

    def transmit(self, sender: int, dest: int, payload: object):
        """Account for one send and draw its transit time, in one call.

        Returns ``(msg_id, delay)``: the accounting of :meth:`prepare` and
        the draw of :meth:`sample_delay` (the delay-batching regression
        tests hold the three to the same ids, delays and counters), without
        the envelope.  The kernel's send path crosses the network boundary
        once per message through this seam and keeps the message in flight
        as flat fields; the :class:`~repro.network.message.Message` is built
        when (and only if) the delivery is dispatched.
        """
        msg_id = self._account(sender, dest, payload)
        cache = self._delay_cache or self._refill()
        delay = cache.pop()
        if sender == dest:
            delay *= self.self_delay_factor
        return msg_id, delay

    def sample_delay(self, sender: int, dest: int) -> float:
        """Transit time for one message; self-addressed messages are faster."""
        cache = self._delay_cache or self._refill()
        delay = cache.pop()
        if sender == dest:
            delay *= self.self_delay_factor
        return delay

    def _refill(self) -> list:
        """Prefetch the next block of raw model draws; returns the new cache.

        The cold path of :meth:`transmit` and :meth:`sample_delay` (once per
        16-512 sends).  The block is stored reversed so serving a draw is a
        ``list.pop()`` from the end, in draw order.
        """
        cache = self._delay_cache = self.delay_model.sample_batch(self._rng, self._batch)
        cache.reverse()
        if self._batch < _MAX_BATCH:
            self._batch *= 2
        return cache

    def record_delivery(self, message: Message) -> None:
        """Account for a delivery (called by the kernel)."""
        self.stats.messages_delivered += 1
        self.stats.delivered_to_process[message.dest] += 1

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

    def _validate_pid(self, pid: int) -> None:
        """Raise ``ValueError`` when ``pid`` is outside ``0..n-1``."""
        if not 0 <= pid < self.n:
            raise ValueError(f"process id {pid} out of range 0..{self.n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Network(n={self.n}, delay={self.delay_model!r}, "
            f"sent={self.stats.messages_sent})"
        )
