"""The discrete-event simulation kernel.

The kernel owns the virtual clock, the event queue, the simulated processes
and the links to the message-passing and shared-memory substrates.  It is an
*asynchronous adversary*: the interleaving of process steps and the delivery
order of messages are controlled entirely by the (seeded) event schedule, so
the algorithms can assume nothing beyond what the paper's model grants them.

The hot path is deliberately flat (see ``docs/performance.md``).  Pending
work lives in two heaps that share one sequence counter, which steps by
``2**32``: process steps and fault events as ``(time, sequence, kind, pid,
payload)`` tuples -- never more than one step per live process plus the
scheduled faults -- and messages in flight as *runs*.  A run is one origin
(the sender and the payload) and a ``bytearray`` of 26-byte records packed
by :data:`_RECORD` (``>dQHd``): the due time, the key, the dest and the send
time.  A message's key is its sequence number ``|`` its ``msg_id`` (which
the network caps below ``2**32``), so keys order exactly as the bare
sequence numbers do.  Each send effect opens a run -- a broadcast's
destinations write into it -- so a message in flight is one record and no
Python object of its own; a unicast, a re-queued delivery and a corrupted
copy are runs of one.  The in-flight heap holds *heads*, ``(time, key,
dest, send_time, at, run)``: a run's record, decoded, and where it is (the
layout is set out above :func:`_seal`).  A run is *open* while its send
effect writes into it, its records unsorted; a record due before everything
the open run holds pushes a new head, and the head it supersedes stays
behind, to be skipped as no event when it surfaces.  When an open run's head falls due, the run
is sealed: its records are sorted bytewise -- big-endian non-negative
doubles and unsigned integers compare bytewise as the numbers do, so that
is ``(time, key)`` order -- and each delivery advances it with a
``heapreplace``; the broadcast's later sends open a new run.  The heap
therefore pops a k-way merge of sorted runs, which is the ``(time, key)``
order one heap of messages would pop; the loop dispatches whichever of the
two heaps' heads is smaller under ``(time, sequence)``, which is unique, and
the order is that of one merged queue.  A run lets go of its origin when it
drains.

A send therefore costs what is ever read of it: the network's accounting
done inline, with no call into :class:`~repro.network.transport.Network`
(a bounds check, one counter bump that is also the ``msg_id`` and is
compared with its cap, one byte-count add sized once per broadcast, and a
pop from the network's delay cache), one record while in flight, and the
:class:`~repro.network.message.Message` envelope only when the delivery is
dispatched -- under the paper's "one for all" rule most messages of a large
run are still in flight when everybody has decided.  The loop body of
:meth:`SimulationKernel.run_batch` is the one definition of a delivery, a
process step (first or resumed) and the send, broadcast and wait effects,
quiescence is a live counter instead of a per-event scan, and trace strings
are only built when tracing is enabled.  A dispatched entry is read as
``(kind, pid, payload)`` fields, a delivery's payload being its ``Message``:
a deferring adversary, a schedule controller, a paused process's backlog
and the trace all see that form (see :mod:`repro.sim.events`).

An explicit fault-injection adversary (:mod:`repro.adversary`) can sharpen
the schedule further: when installed, it is consulted at message-send time
(omission, duplication, reordering, partitions) and at event-dispatch time
(per-process slowdowns), and may schedule transient outages via
:meth:`SimulationKernel.schedule_pause`.  Each hook is consulted only when the
installed adversary's scenario can fire it -- the adversary declares that
once, as capability flags the loop hoists into locals -- so a run with no
adversary, or with one whose scenario holds no fault of that kind, pays one
local boolean test per event and one per send.

CPython's cyclic collector is not on the loop's bill either: the outermost
loop drivers -- :meth:`SimulationKernel.run`,
:meth:`~repro.sim.multikernel.CooperativeScheduler.run` and
:func:`~repro.harness.runner.run_consensus` -- execute under
:func:`collector_paused`, and a finished run needs no collector to go away.
Ownership runs one way (kernel -> processes -> contexts, kernel ->
adversary); contexts and the adversary point back at their kernel weakly and
the dispatch tables of bound methods are built per ``run_batch`` call, never
stored, so dropping the kernel frees mailboxes, both heaps' tails, runs,
broadcasts in progress and generators by reference counting, immediately.
"""

from __future__ import annotations

import enum
import gc
import math
import re
import struct
from contextlib import contextmanager
from heapq import heappop, heappush, heapreplace
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..network.message import Message
from ..network.transport import DEST_CAP, MSG_ID_CAP
from .context import (
    BroadcastEffect,
    LocalEffect,
    ProcessContext,
    ProcessStats,
    RoundLimitExceeded,
    SendEffect,
    SharedMemEffect,
    WaitEffect,
)
from .events import EVENT_KIND_NAMES, EventKind, describe_entry
from .process import ProcessState, SimProcess
from .rng import RandomSource
from .trace import Trace

_START = int(EventKind.PROCESS_START)
_RESUME = int(EventKind.STEP_RESUME)
_DELIVERY = int(EventKind.MESSAGE_DELIVERY)
_CRASH = int(EventKind.PROCESS_CRASH)
_PAUSE = int(EventKind.PROCESS_PAUSE)
_RECOVER = int(EventKind.PROCESS_RECOVER)

#: An adversary returning this from ``defer`` drops the delivery outright
#: (an infinite deferral is an omission); only valid for delivery events.
_INF = math.inf

#: A set, not a tuple: the loop tests every yielded effect's exact type against
#: it, and a hash probe beats up to five failed type comparisons.  Exactly these
#: types are effects; a subclass of one is refused like any other object.
_EFFECT_TYPES = frozenset({SendEffect, BroadcastEffect, WaitEffect, SharedMemEffect, LocalEffect})

#: What the sequence counter steps by: the ``msg_id`` cap, so a message in
#: flight carries its id in the low bits of its key (``sequence | msg_id``)
#: and keys of both heaps order as the bare sequence numbers would.
#: ``run_batch`` hoists it, and the mask, into locals.
_SEQUENCE_STEP = MSG_ID_CAP
#: ``key & _MSG_ID_MASK`` is a message in flight's ``msg_id``.
_MSG_ID_MASK = MSG_ID_CAP - 1

#: The envelope of a dispatched delivery is built through ``tuple.__new__``,
#: skipping the ``Message.__new__`` wrapper frame; equivalent to
#: ``Message(sender, dest, payload, send_time, msg_id)``.
_tuple_new = tuple.__new__

#: A message in flight: due time, key (``sequence | msg_id``), dest and send
#: time, big-endian and unpadded (26 bytes), written into its run.  Bytewise
#: order is ``(time, key)`` order while the due time is a non-negative double
#: and the key fits 64 bits; nothing compares further, keys being unique.
_RECORD = struct.Struct(">dQHd")
_RECORD_SIZE = _RECORD.size
#: A run's records as a list of 26-byte ``bytes``, split in one C call.
_split_records = re.compile(b".{%d}" % _RECORD_SIZE, re.DOTALL).findall
#: The packed key's bound: the sequence counter stays below it, so one run
#: queues fewer than ``2**32`` entries (steps, faults and messages alike).
_KEY_CAP = 1 << 64


def _pack_record(time: float, key: int, dest: int, send_time: float) -> bytes:
    """Pack one message in flight, refusing a field its layout cannot hold.

    The checked packer of the cold paths (re-queues, adversarial sends); the
    loop packs directly and comes here only to name what ``struct`` refused.
    A NaN or negative due time would pack, but sort after every other record.
    """
    if not time >= 0.0:
        raise ValueError(f"a message in flight's due time must be >= 0 and not NaN, got {time!r}")
    if key >= _KEY_CAP:
        raise OverflowError(
            f"sequence counter passed the key cap {_KEY_CAP:,} (2**64): one run queues "
            f"fewer than {_KEY_CAP // _SEQUENCE_STEP:,} entries"
        )
    if not 0 <= dest < DEST_CAP:
        raise ValueError(f"dest {dest!r} is outside the 0..{DEST_CAP - 1} a message in flight holds")
    return _RECORD.pack(time + 0.0, key, dest, send_time)  # + 0.0: no -0.0


# A run is a six-slot list, ``[records, at, sender, payload, due, end]``.
# ``records`` holds the run's packed messages in its first ``end`` bytes (a
# ``bytearray`` sized for every send of its send effect while open, sorted
# ``bytes`` once sealed); ``at`` is -1 while the run is open, then the byte
# offset of its next record; ``due`` is the least due time written while
# open.  A head ``(time, key, dest, send_time, at, run)`` -- a record's
# fields as ``_RECORD.unpack_from`` returns them, then where it is -- stands
# for the run's record at offset ``at`` (-1: its least, pushed while open)
# and is current while its ``at`` equals the run's.  Heads whose ``(time,
# key)`` tie stand for one record of one run, pushed once while open and
# once sealed, so their next two fields tie too and ``at`` breaks the tie:
# two heads never compare their runs, and the open one (-1) pops first and
# is skipped.  An open run's least head is current: the heads it superseded
# are due later, so none of them surfaces before the run is sealed.
def _seal(records: bytearray, end: int) -> bytes:
    """An open run's first ``end`` bytes of records, sorted bytewise: ``(time, key)`` order."""
    parts = _split_records(records, 0, end)
    parts.sort()
    return b"".join(parts)


def _new_run(sender: int, payload: Any, count: int = 1) -> list:
    """An open run of ``(sender, payload)`` sized for ``count`` messages."""
    return [bytearray(count * _RECORD_SIZE), -1, sender, payload, 0.0, 0]


def _in_flight_messages(kernel: "SimulationKernel") -> List[Tuple[float, int, Message]]:
    """Every message in flight as ``(due time, key, Message)``, in dispatch order.

    Decodes the runs the in-flight heap's current heads stand for (an open
    run from its first record, a sealed one from its next); the loop of
    :meth:`SimulationKernel.run_batch` never builds this list.
    """
    # By identity: an open run's superseded heads look current too.
    runs = {id(run): run for *_, at, run in kernel._inflight if at == run[1]}
    found = []
    for records, at, sender, payload, _, end in runs.values():
        for time, key, dest, send_time in _RECORD.iter_unpack(records[max(at, 0) : end]):
            found.append((time, key, Message(sender, dest, payload, send_time, key & _MSG_ID_MASK)))
    found.sort(key=lambda item: item[:2])
    return found


def _no_network(payload: Any) -> int:
    """The send path's payload sizer when no network is attached: refuse."""
    raise RuntimeError("no network attached; cannot handle SendEffect")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with CPython's cyclic collector off; restore on exit.

    An event loop allocates a tracked container per queued step and one more
    per delivery (the ``Message``), all acyclic and all freed by reference
    counting the moment they are consumed -- yet every full collection
    re-traverses the whole live population (see "What the cyclic collector
    cost" in ``docs/performance.md``; a message in flight is a record
    in an untracked buffer).  The outermost loop drivers
    therefore run under this pause: :meth:`SimulationKernel.run`,
    :meth:`~repro.sim.multikernel.CooperativeScheduler.run` (whose drivers
    prepare and finalize their runs inside it) and
    :func:`~repro.harness.runner.run_consensus`, which holds it from
    prepare through finalize until its kernel is dropped, so no collection
    starts over a finished kernel that reference counting is about to free.
    It restores the state found on entry (a caller who had the collector
    off keeps it off), on every exit path, so it nests.
    It rests on two invariants ``tests/test_kernel_collector.py`` guards: a
    run creates no cyclic garbage per event, and a finished run is itself
    acyclic -- dropping the kernel frees its whole graph by refcount.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class RunStatus(enum.Enum):
    """Outcome of a simulation run."""

    DECIDED = "decided"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    ROUND_LIMIT = "round-limit"

    @property
    def terminated(self) -> bool:
        """True when every correct process decided."""
        return self is RunStatus.DECIDED


@dataclass
class SimConfig:
    """Tunable parameters of the simulated execution environment.

    The delay constants are in arbitrary virtual-time units.  Their default
    ratio (shared-memory operation one order of magnitude cheaper than a
    typical message delay, local steps cheaper still) encodes the paper's
    efficiency premise: intra-cluster agreement is cheap, inter-cluster
    message exchange is expensive.
    """

    max_time: float = 1e9
    max_rounds: Optional[int] = 500
    local_step_delay: float = 1e-4
    sm_op_delay: float = 1e-3
    scheduling_jitter: float = 1e-5
    trace: bool = False
    trace_max_entries: int = 100_000

    def __post_init__(self) -> None:
        # A negative delay queues steps behind the clock, a NaN one puts NaN
        # keys in the heap, and a NaN time bound never times out: refuse them
        # here, naming the field, rather than run a meaningless schedule.
        for name in ("local_step_delay", "sm_op_delay", "scheduling_jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"SimConfig.{name} must be finite and >= 0, got {value!r}")
        if not self.max_time > 0:
            raise ValueError(f"SimConfig.max_time must be > 0 (inf allowed), got {self.max_time!r}")
        rounds = self.max_rounds
        if rounds is not None and (type(rounds) is bool or not isinstance(rounds, int) or rounds < 1):
            raise ValueError(f"SimConfig.max_rounds must be None or an int >= 1, got {rounds!r}")
        cap = self.trace_max_entries
        if type(cap) is bool or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"SimConfig.trace_max_entries must be an int >= 0, got {cap!r}")


@dataclass
class SimulationResult:
    """Everything the harness needs to know about a finished run."""

    status: RunStatus
    decisions: Dict[int, Any]
    decision_times: Dict[int, float]
    correct: Set[int]
    crashed: Set[int]
    non_terminated: Set[int]
    rounds: Dict[int, int]
    end_time: float
    events_processed: int
    process_stats: Dict[int, ProcessStats]

    @property
    def decided_values(self) -> Set[Any]:
        """The set of distinct values decided by any process."""
        return {value for value in self.decisions.values()}

    def decision_of_correct(self) -> Optional[Any]:
        """The unique value decided by correct processes, if any decided."""
        values = {self.decisions[pid] for pid in self.correct if pid in self.decisions}
        if not values:
            return None
        if len(values) > 1:
            raise ValueError(f"agreement violated: correct processes decided {values}")
        return next(iter(values))


class SimulationKernel:
    """Seeded discrete-event simulator for hybrid-model executions."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[SimConfig] = None,
        rng: Optional[RandomSource] = None,
        trace_sink: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.rng = rng if rng is not None else RandomSource(seed)
        self.now: float = 0.0
        #: When set, the trace is force-enabled and dumped to this path as
        #: JSONL (see :meth:`~repro.sim.trace.Trace.dump_jsonl`) every time
        #: the run reaches a terminal state.  A kernel option rather than a
        #: :class:`SimConfig` field on purpose: where a trace lands on one
        #: host must not perturb plan fingerprints shared across hosts.
        self.trace_sink = Path(trace_sink) if trace_sink is not None else None
        self.trace = Trace(
            enabled=self.config.trace or self.trace_sink is not None,
            max_entries=self.config.trace_max_entries,
        )
        #: Process steps and fault events, as flat ``(time, sequence, kind,
        #: pid, payload)`` tuples: at most one step per live process plus the
        #: scheduled faults, whatever the number of messages in flight.
        self._queue: List[Tuple[float, int, int, int, Any]] = []
        #: Messages in flight, as one head per run (see :func:`_seal`) in a
        #: heap of their own.  Both heaps draw their sequence numbers from
        #: the one counter, which steps by ``_SEQUENCE_STEP``, so ``(time,
        #: key)`` orders the union (see :meth:`run_batch`).
        self._inflight: List[Tuple[float, int, int, float, int, list]] = []
        self._sequence = 0
        self._processes: Dict[int, SimProcess] = {}
        #: :attr:`pid_order`, or None until it is read after a registration.
        self._pid_order: Optional[Tuple[int, ...]] = None
        #: Registered processes that have not yet reached a terminal state;
        #: maintained by :meth:`_settle` so the run loop's quiescence check
        #: is one integer comparison instead of an O(n) scan per event.
        self._live = 0
        self._network = None
        self._adversary = None
        #: The installed adversary's capability flags, copied once by
        #: :meth:`install_adversary` and hoisted by the loop: offer events to
        #: ``defer`` / route sends through ``deliveries``.  Both False with
        #: no adversary installed.
        self._adversary_defers = False
        self._adversary_faults_links = False
        self._schedule_controller = None
        #: Adversary-deferred entries: the re-queued entry's key -> the key
        #: the entry was first queued under.  That first key is the one
        #: ``defer`` is offered on every offer, so
        #: the adversary's once-only bookkeeping sees one event however
        #: often it is re-queued.
        self._deferred: Dict[int, int] = {}
        self.events_processed = 0
        self.dropped_deliveries = 0
        self._sched_rng = self.rng.stream("kernel", "jitter")
        self._sched_random = self._sched_rng.random

    # The two dispatch tables (for what the loop body does not define itself)
    # are built from the instance on demand, once per ``run_batch`` call, never
    # stored on it: bound methods of ``self`` kept on ``self`` would make every
    # finished kernel cyclic garbage that only the collector ``run`` pauses
    # could reclaim.  Built from the *current* class attributes, so tests may
    # patch handler methods on the class before (or after) instantiating one.
    @property
    def _handlers(self) -> List[Callable[[int, Any], None]]:
        """The fault-event handlers, indexed with ``kind - PROCESS_CRASH``."""
        return [self._handle_crash, self._handle_pause, self._handle_recover]

    @property
    def _effect_handlers(self) -> Dict[type, Callable[[SimProcess, Any], None]]:
        """Exact-type dispatch of the two effects the loop does not inline."""
        return {SharedMemEffect: self._do_sm_op, LocalEffect: self._do_local}

    # ----------------------------------------------------------------- setup
    def attach_network(self, network) -> None:
        """Attach the message-passing substrate used to time deliveries."""
        self._network = network

    def install_adversary(self, adversary) -> None:
        """Install a fault-injection adversary (see :mod:`repro.adversary`).

        The adversary may be consulted at message-send time (which delivery
        delays a send turns into) and at event-dispatch time (whether an
        event is deferred), and may schedule pause/recover events through
        :meth:`schedule_pause`.  Which of the two consultations happen is
        fixed here, from the adversary's ``faults_links`` and
        ``defers_events`` flags: a hook its scenario can never fire is not
        called at all, and costs what it costs with no adversary installed
        -- one local boolean test per send, one per event.  Must be called
        after every process is registered.
        """
        if self._adversary is not None:
            raise RuntimeError("an adversary is already installed")
        adversary.install(self)
        self._adversary = adversary
        self._adversary_defers = adversary.defers_events
        self._adversary_faults_links = adversary.faults_links

    @property
    def adversary(self):
        """The installed fault-injection adversary, or ``None``."""
        return self._adversary

    def install_schedule_controller(self, controller) -> None:
        """Install a dispatch-order controller (see :mod:`repro.search`).

        At every point where several entries -- steps, faults or deliveries,
        from either heap -- share the earliest virtual timestamp, the
        controller's ``choose(now, time, entries)`` picks which entry (by
        index into the sequence-ordered tie list) dispatches next; the rest
        are re-queued untouched.  With no ties -- or no controller --
        dispatch order is the usual ``(time, sequence)`` order, so a
        controller that always chooses index 0 reproduces the uncontrolled
        execution exactly.  Costs one ``is None`` check per event when
        uninstalled.
        """
        if self._schedule_controller is not None:
            raise RuntimeError("a schedule controller is already installed")
        self._schedule_controller = controller

    @property
    def network(self):
        """The attached message-passing substrate, or ``None``."""
        return self._network

    def add_process(self, pid: int, factory: Callable[[ProcessContext], Any]) -> SimProcess:
        """Register a process whose behaviour is ``factory(ctx)`` (a generator)."""
        if pid in self._processes:
            raise ValueError(f"duplicate process id {pid}")
        context = ProcessContext(pid, self)
        proc = SimProcess(pid=pid, context=context, factory=factory)
        self._processes[pid] = proc
        self._pid_order = None
        self._live += 1
        self._schedule(0.0, _START, pid, None)
        return proc

    def schedule_crash(self, pid: int, time: float) -> None:
        """Schedule process ``pid`` to crash at virtual ``time`` (``inf``: never)."""
        if pid not in self._processes:
            raise KeyError(f"unknown process id {pid}")
        if not time >= 0:
            raise ValueError(f"crash time for process {pid} must be >= 0 and not NaN, got {time!r}")
        self._schedule(time, _CRASH, pid, None)

    def schedule_pause(self, pid: int, down_at: float, up_at: float) -> None:
        """Schedule a transient outage of ``pid`` during ``[down_at, up_at)``.

        ``up_at`` may be ``inf`` (the process never recovers); neither bound
        may be NaN.
        """
        if pid not in self._processes:
            raise KeyError(f"unknown process id {pid}")
        if not 0 <= down_at < up_at:
            raise ValueError(
                f"outage of process {pid} needs 0 <= down_at < up_at, neither NaN, "
                f"got [{down_at!r}, {up_at!r})"
            )
        self._schedule(down_at, _PAUSE, pid, None)
        self._schedule(up_at, _RECOVER, pid, None)

    @property
    def pid_order(self) -> Tuple[int, ...]:
        """Every registered process id, ascending, as one tuple.

        What every broadcast is addressed to: sorted once, on the first read
        after a registration, and shared as is until the next one.
        """
        pid_order = self._pid_order
        if pid_order is None:
            pid_order = self._pid_order = tuple(sorted(self._processes))
        return pid_order

    def process_ids(self) -> List[int]:
        """All registered process ids, in ascending order."""
        return sorted(self._processes)

    def process(self, pid: int) -> SimProcess:
        """The kernel-side record of process ``pid``."""
        return self._processes[pid]

    @property
    def processes(self) -> Dict[int, SimProcess]:
        """A snapshot of the registered processes, keyed by pid."""
        return dict(self._processes)

    # ------------------------------------------------------------- scheduling
    def _schedule(self, time: float, kind: int, pid: int, payload: Any) -> int:
        """Queue an entry under the next sequence number; return its key.

        A delivery's payload is its :class:`~repro.network.message.Message`:
        it goes to the in-flight heap as a run of one, under a key that also
        carries the ``msg_id``.
        """
        self._sequence = key = self._sequence + _SEQUENCE_STEP
        if kind != _DELIVERY:
            heappush(self._queue, (time, key, kind, pid, payload))
            return key
        sender, _, content, send_time, msg_id = payload
        key |= msg_id
        self._put(_new_run(sender, content), time, key, pid, send_time)
        return key

    def _put(self, run: list, time: float, key: int, dest: int, send_time: float) -> None:
        """Write one message in flight into the open ``run``.

        The cold paths' send (re-queues, adversarial sends); the loop of
        :meth:`run_batch` inlines it.  The run's buffer grows if the send
        effect it was sized for writes more than it planned (duplicates).
        """
        record = _pack_record(time, key, dest, send_time)
        end = run[5]
        run[0][end : end + _RECORD_SIZE] = record
        run[5] = end + _RECORD_SIZE
        if not end or time < run[4]:
            run[4] = time
            heappush(self._inflight, (time, key, dest, send_time, -1, run))

    def _controlled_pop(self, controller) -> Optional[Tuple[float, int, int, int, Any]]:
        """Pop the next entry, letting ``controller`` pick among head ties.

        Entries of either heap sharing the earliest virtual timestamp form
        the tie set, offered as ``(time, key, kind, pid, payload)`` tuples
        in key order (the order the uncontrolled kernel would dispatch them;
        a delivery's payload is its ``Message``).  Every message due then is
        lifted out of its run -- a run's whole equal-time prefix, not just
        its head -- so the set is the same as one heap of messages would
        give.  The controller returns the index to dispatch now, and that
        entry is returned in the offered form; the rest go back, a message
        as a run of one under its own key, so they re-enter later tie sets
        unchanged.  A single-entry head is never offered -- there is no
        scheduling freedom to exercise.  None when only superseded heads
        were left.
        """
        queue = self._queue
        inflight = self._inflight
        while inflight and inflight[0][4] != inflight[0][5][1]:
            heappop(inflight)
        if not (queue or inflight):
            return None
        heads = [queue[0][0]] if queue else []
        if inflight:
            heads.append(inflight[0][0])
        time = min(heads)
        ties = []
        while queue and queue[0][0] == time:
            ties.append(heappop(queue))
        while inflight and inflight[0][0] == time:
            # A run's next record due now surfaces in this loop too: its
            # whole equal-time prefix is lifted.
            _, key, dest, send_time, at, run = heappop(inflight)
            records, current, sender, payload, _, end = run
            if at != current:
                continue
            if at < 0:
                records = run[0] = _seal(records, end)
                at = 0
            message = Message(sender, dest, payload, send_time, key & _MSG_ID_MASK)
            ties.append((time, key, _DELIVERY, dest, message))
            at += _RECORD_SIZE
            run[1] = at
            if at < end:
                heappush(inflight, _RECORD.unpack_from(records, at) + (at, run))
        if len(ties) == 1:
            return ties[0]
        ties.sort(key=lambda entry: entry[1])  # by key: unique
        index = controller.choose(self.now, time, list(ties))
        if not 0 <= index < len(ties):
            raise ValueError(
                f"schedule controller chose index {index} among {len(ties)} tied entries"
            )
        chosen = ties.pop(index)
        for entry in ties:
            if entry[2] == _DELIVERY:
                _, key, _, dest, (sender, _, payload, send_time, _) = entry
                self._put(_new_run(sender, payload), time, key, dest, send_time)
            else:
                heappush(queue, entry)
        return chosen

    def _resume_later(self, pid: int, value: Any, delay: float) -> None:
        jitter = self.config.scheduling_jitter
        if jitter > 0:
            time = self.now + delay + self._sched_random() * jitter
        else:
            time = self.now + delay
        self._sequence += _SEQUENCE_STEP
        heappush(self._queue, (time, self._sequence, _RESUME, pid, value))

    # -------------------------------------------------------------- main loop
    def run(self) -> SimulationResult:
        """Process events until completion, quiescence or the time bound.

        Equivalent to :meth:`run_batch` with an unlimited budget; the batch
        form exists so a cooperative host (:mod:`repro.sim.multikernel`) can
        interleave several kernels in one process.  Running a kernel through
        any sequence of ``run_batch`` calls is bit-identical to one ``run``
        call: the budget only decides *when* control returns, never what the
        kernel does with the next event.

        The loop runs under :func:`collector_paused`; ``run_batch`` itself
        never touches the collector (allocations keep counting into
        generation 0 while it is off, so re-enabling at every batch boundary
        would turn each boundary into a traversal of everything allocated so
        far) -- whoever drives batches owns the pause.
        """
        with collector_paused():
            result = self.run_batch(-1)
        if result is None:  # pragma: no cover - unlimited budgets always finish
            raise AssertionError("unbounded run_batch returned no result")
        return result

    def run_batch(self, max_events: int = -1) -> Optional[SimulationResult]:
        """Process at most ``max_events`` events; ``-1`` means no budget.

        Returns the :class:`SimulationResult` when the run reached a terminal
        state (every process settled, quiescence, or the time bound), or
        ``None`` when the budget ran out with work still queued -- call again
        to continue exactly where the previous batch stopped.  Deferred
        (adversary-postponed) events do not count against the budget; only
        dispatched events do, matching :attr:`events_processed`.

        Each iteration dispatches the smaller of the two heaps' heads under
        ``(time, sequence)`` -- with ``scheduling_jitter=0`` a step and a
        delivery tie on time and resolve by sequence -- and the run is over,
        or out of budget with work queued, only with respect to *both*.  An
        in-flight head carries its record's fields decoded, so picking a heap
        is one tuple comparison, which decides on the due times unless they
        tie, and a delivery unpacks only the record that replaces its head.

        Message deliveries and process steps -- the first
        (``PROCESS_START``) and every resume, with the send, broadcast and
        wait effects a step can yield -- are defined in this loop body and
        nowhere else, so the hot chain runs on loop-hoisted locals with no
        intervening call frames; the recover replay re-queues its backlog and
        so comes back through the same code.  A broadcast is walked here, one
        destination per step through the one send site, and its generator is
        resumed once at the end.  That send site does the accounting of
        :meth:`~repro.network.transport.Network.transmit` inline, and
        ``tests/test_kernel_send.py`` holds the two to the same ids, delays,
        counters and errors, the ``msg_id`` cap's included.  Only the fault
        events and the shared-memory and local-step effects are methods.  The
        golden tests pin what an event does: full e1-e11 summaries against a
        pre-refactor fixture, and whole traces against the digests of the
        single-heap loop.
        """
        if max_events == 0 or max_events < -1:
            raise ValueError(f"max_events must be positive or -1, got {max_events}")
        if not self._processes:
            raise RuntimeError("no processes registered")
        budget = max_events
        queue = self._queue
        inflight = self._inflight
        pack_into = _RECORD.pack_into
        unpack_from = _RECORD.unpack_from
        record_size = _RECORD_SIZE
        trace = self.trace
        # Hoisted once per run: tracing cannot be toggled mid-run (and
        # Trace.record self-guards anyway, so boundary paths stay correct).
        trace_enabled = trace.enabled
        adversary = self._adversary
        defers_events = self._adversary_defers
        faults_links = self._adversary_faults_links
        controller = self._schedule_controller
        handlers = self._handlers
        processes: Any = self._processes
        if set(processes) == set(range(len(processes))):
            # Dense pid range (the common case): a list subscript beats a
            # dict lookup on the delivery and step paths below.  Sparse
            # pid sets keep the dict.
            processes = [processes[index] for index in range(len(processes))]
        network = self._network
        if network is None:
            net_stats = None
            size_of = _no_network
        else:
            # The send path's handles into the network, hoisted like the
            # counters: the delay cache is one list for the network's life
            # (refilled in place), so its bound ``pop`` stays valid across
            # refills, including those an adversary's ``sample_delay`` does.
            net_stats = network.stats
            net_n = network.n
            delay_cache = network._delay_cache
            pop_delay = delay_cache.pop
            refill_delays = network._refill
            self_delay_factor = network.self_delay_factor
            size_of = network.payload_bytes
        sched_random = self._sched_random
        effect_handlers = self._effect_handlers
        config = self.config
        max_time = config.max_time
        # Hoisted like the rest: a module global costs a dict probe per send.
        step = _SEQUENCE_STEP
        msg_id_mask = _MSG_ID_MASK
        local_step_delay = config.local_step_delay
        jitter = config.scheduling_jitter
        ready = ProcessState.READY
        blocked = ProcessState.BLOCKED
        crashed = ProcessState.CRASHED
        processed = 0
        try:
            while queue or inflight:
                if processed == budget:
                    # Budget spent with work still queued: hand control back
                    # to the cooperative host (the ``finally`` flushes the
                    # counter); the next call resumes on the same heaps.
                    return None
                if controller is not None:
                    entry = self._controlled_pop(controller)
                    if entry is None:
                        continue
                    time, sequence, kind, pid, payload = entry
                elif inflight:
                    head = inflight[0]
                    if queue and queue[0] < head:
                        # ``(time, sequence)`` is unique across both heaps (a
                        # delivery's sequence is its key), so the tuple
                        # comparison never reaches the fields in which the
                        # two shapes differ.
                        time, sequence, kind, pid, payload = heappop(queue)
                    else:
                        time, sequence, pid, send_time, at, run = head
                        records, current, sender, payload, _, end = run
                        if at != current:
                            # A head its run has moved past: no event.
                            heappop(inflight)
                            continue
                        if at < 0:
                            # An open run fell due: what it holds becomes
                            # one sorted segment, and its broadcast's later
                            # sends open a new run.
                            if end > record_size:
                                records = run[0] = _seal(records, end)
                            at = 0
                        at += record_size
                        run[1] = at
                        if at < end:
                            heapreplace(inflight, unpack_from(records, at) + (at, run))
                        else:
                            # Drained: the last head lets go of the origin.
                            heappop(inflight)
                        kind = _DELIVERY
                        # The one place a message in flight becomes a
                        # ``Message``.
                        payload = _tuple_new(Message, (sender, pid, payload, send_time, sequence & msg_id_mask))
                else:
                    time, sequence, kind, pid, payload = heappop(queue)
                if time > max_time:
                    self.now = max_time
                    self.events_processed += processed
                    processed = 0
                    return self._result(RunStatus.TIMEOUT)
                if time > self.now:
                    self.now = time
                if defers_events:
                    key = self._deferred.pop(sequence, sequence)
                    extra = adversary.defer(kind, pid, payload, key, self.now)
                    if extra > 0.0:
                        if extra == _INF:
                            # An infinite deferral is an omission: only
                            # deliveries may be dropped this way (dropping a
                            # step would wedge the process outright).
                            if kind != _DELIVERY:
                                raise RuntimeError(
                                    f"adversary returned an infinite deferral for "
                                    f"non-delivery event {describe_entry(kind, pid, payload)}"
                                )
                            self._network.record_fault("omitted")
                            if trace_enabled:
                                trace.record(
                                    self.now,
                                    "omit",
                                    pid,
                                    "dropped at dispatch by adversary",
                                    {"at": "dispatch"},
                                )
                            continue
                        requeued = self._schedule(self.now + extra, kind, pid, payload)
                        self._deferred[requeued] = key
                        continue
                processed += 1
                if trace_enabled:
                    trace.record(
                        self.now,
                        "event",
                        pid,
                        describe_entry(kind, pid, payload),
                        {"event": EVENT_KIND_NAMES[kind]},
                    )
                if kind == _DELIVERY:
                    # Deliveries can never settle a process, so the
                    # quiescence re-check below is skipped.
                    proc = processes[pid]
                    state = proc.state
                    if state is crashed:
                        self.dropped_deliveries += 1
                        continue
                    if proc.paused:
                        proc.paused_backlog.append((_DELIVERY, pid, payload))
                        continue
                    proc.mailbox.append(payload)
                    if net_stats is not None:
                        # Network.record_delivery, inlined (it remains the public
                        # seam).
                        net_stats.messages_delivered += 1
                    if state is blocked:
                        result = proc.wait_predicate(proc.mailbox)
                        if result is not None:
                            proc.wait_predicate = None
                            proc.state = ready
                            if jitter > 0:
                                time = self.now + local_step_delay + sched_random() * jitter
                            else:
                                time = self.now + local_step_delay
                            self._sequence += step
                            heappush(queue, (time, self._sequence, _RESUME, pid, result))
                    continue
                if kind <= _RESUME:
                    # One process step: the first (PROCESS_START, payload
                    # None) or a resume carrying the previous effect's result.
                    proc = processes[pid]
                    state = proc.state
                    if state is not ready and state is not blocked:
                        # A settled process takes no step.  Only a crashed one
                        # drops a start: one that decided or halted has started,
                        # so this raises as any second start does.
                        if kind == _START and state is not crashed:
                            proc.start()
                        continue
                    if proc.paused:
                        # A down process must not execute, let alone send: the
                        # step (a deferred start too) waits for the recover.
                        proc.paused_backlog.append((kind, pid, payload))
                        continue
                    if kind == _START:
                        proc.start()
                    stats = proc.stats
                    stats.steps += 1
                    broadcast = proc.broadcast
                    if broadcast is None:
                        try:
                            effect = proc.generator.send(payload)
                        except StopIteration as stop:
                            proc.decision = stop.value
                            proc.decision_time = self.now
                            self._settle(
                                proc,
                                ProcessState.DECIDED if stop.value is not None else ProcessState.HALTED,
                            )
                            if stop.value is None:
                                proc.halt_reason = "returned None"
                            if trace_enabled:
                                trace.record(self.now, "decide", pid, repr(stop.value))
                            if self._live == 0:
                                break
                            continue
                        except RoundLimitExceeded as exceeded:
                            self._settle(proc, ProcessState.HALTED)
                            proc.halt_reason = str(exceeded)
                            if trace_enabled:
                                trace.record(self.now, "halt", pid, proc.halt_reason)
                            if self._live == 0:
                                break
                            continue
                        cls = type(effect)
                        if cls not in _EFFECT_TYPES:
                            raise TypeError(
                                f"process {pid} yielded {effect!r}, whose type "
                                f"{cls.__qualname__} is not one of the effect types "
                                f"{sorted(t.__name__ for t in _EFFECT_TYPES)}"
                            )
                        if cls is BroadcastEffect:
                            dests = list(effect.dests)
                            if not dests:
                                raise ValueError(
                                    f"process {pid} yielded {effect!r}, which has no destination"
                                )
                            dests.reverse()
                            # The cursor carries the payload's byte charge,
                            # sized once for every destination, and the open
                            # run the sends write into, sized for all of them.
                            payload = effect.payload
                            run = [bytearray(len(dests) * record_size), -1, pid, payload, 0.0, 0]
                            broadcast = proc.broadcast = [dests, size_of(payload), run]
                        elif cls is SendEffect:
                            dest = effect.dest
                            size = size_of(effect.payload)
                            run = [bytearray(record_size), -1, pid, effect.payload, 0.0, 0]
                        elif cls is WaitEffect:
                            result = effect.predicate(proc.mailbox)
                            if result is not None:
                                if jitter > 0:
                                    time = self.now + local_step_delay + sched_random() * jitter
                                else:
                                    time = self.now + local_step_delay
                                self._sequence += step
                                heappush(queue, (time, self._sequence, _RESUME, pid, result))
                            else:
                                proc.state = blocked
                                proc.wait_predicate = effect.predicate
                                if trace_enabled:
                                    trace.record(self.now, "block", pid, "waiting on messages")
                            continue
                        else:
                            # Neither handler can settle a process, and the one
                            # stepping is still live: no quiescence re-check.
                            effect_handlers[cls](proc, effect)
                            continue
                    if broadcast is not None:
                        # A broadcast in progress: this step is the send to its
                        # next destination, accounted like a ``ctx.send``.  The
                        # generator is resumed by the step after the last one.
                        dests, size, run = broadcast
                        dest = dests.pop()
                        if run[1] >= 0:
                            # Its run fell due mid-broadcast and was sealed:
                            # the rest of the sends open a new one.
                            room = bytearray((len(dests) + 1) * record_size)
                            run = broadcast[2] = [room, -1, pid, run[3], 0.0, 0]
                        if not dests:
                            proc.broadcast = None
                        stats.messages_sent += 1
                    # The one send: a SendEffect, or one destination of a
                    # BroadcastEffect.  Network.transmit, inlined (it remains
                    # the public seam and the reference): bounds check, the
                    # counter bump that is the msg_id (refused at its cap),
                    # the byte charge and one draw from the delay cache.
                    # The message is one record in ``run`` while in flight
                    # (``_put``, inlined).
                    if not (0 <= pid < net_n and 0 <= dest < net_n):
                        network.validate_endpoints(pid, dest)
                    msg_id = net_stats.messages_sent + 1
                    if msg_id > msg_id_mask:
                        network.refuse_msg_id(msg_id)
                    net_stats.messages_sent = msg_id
                    net_stats.bytes_sent += size
                    if not delay_cache:
                        refill_delays()
                    delay = pop_delay()
                    if pid == dest:
                        delay *= self_delay_factor
                    now = self.now
                    if trace_enabled:
                        trace.record(now, "send", pid, f"to={dest} {run[3]!r}", {"dest": dest})
                    if not faults_links:
                        # One sequence store covers both pushes; the
                        # delivery takes the lower number, exactly as two
                        # bumps would assign.
                        sequence = self._sequence + step
                        due = now + delay
                        end = run[5]
                        try:
                            pack_into(run[0], end, due, sequence | msg_id, dest, now)
                        except struct.error:
                            # Name the field the layout cannot hold.
                            _pack_record(due, sequence | msg_id, dest, now)
                            raise
                        run[5] = end + record_size
                        if not end or due < run[4]:
                            # The run's first record, or one due before
                            # all it holds: a new head.
                            run[4] = due
                            heappush(inflight, (due, sequence | msg_id, dest, now, -1, run))
                    else:
                        self._adversarial_send(pid, dest, run, delay, msg_id)
                        sequence = self._sequence
                    sequence += step
                    self._sequence = sequence
                    if jitter > 0:
                        time = now + local_step_delay + sched_random() * jitter
                    else:
                        time = now + local_step_delay
                    heappush(queue, (time, sequence, _RESUME, pid, None))
                    continue
                handlers[kind - _CRASH](pid, payload)
                if self._live == 0:
                    break
        finally:
            # The counter is accumulated locally (one attribute store per
            # run, not per event) and flushed on every exit path.
            self.events_processed += processed
        return self._result(self._final_status())

    def _settle(self, proc: SimProcess, state: ProcessState) -> None:
        """Move ``proc`` into terminal ``state``, maintaining the live count."""
        proc.state = state
        self._live -= 1

    # ---------------------------------------------------------- event handlers
    def _handle_crash(self, pid: int, payload: Any) -> None:
        proc = self._processes[pid]
        if proc.state.is_terminal():
            # Crashing an already decided/halted process has no further effect,
            # but the process still counts as crashed for fault accounting.
            if proc.state is not ProcessState.DECIDED:
                proc.state = ProcessState.CRASHED
                proc.crash_time = self.now
            return
        self._settle(proc, ProcessState.CRASHED)
        proc.crash_time = self.now
        proc.wait_predicate = None

    def _handle_pause(self, pid: int, payload: Any) -> None:
        """Begin a transient outage (see :class:`~repro.sim.events.EventKind`)."""
        proc = self._processes[pid]
        if proc.state.is_terminal() or proc.paused:
            return
        proc.paused = True
        if self.trace.enabled:
            self.trace.record(self.now, "pause", pid, "transient outage begins")

    def _handle_recover(self, pid: int, payload: Any) -> None:
        """End a transient outage: replay the backlog in its buffered order.

        Replayed events are re-queued at the current time (the buffered
        order is preserved by the queue's sequence tie-break); the regular
        handlers then apply the usual state checks, so a process that
        crashed for good while paused still drops its backlog.
        """
        proc = self._processes[pid]
        if not proc.paused:
            return
        proc.paused = False
        backlog, proc.paused_backlog = proc.paused_backlog, []
        for entry in backlog:
            self._schedule(self.now, *entry)
        if self.trace.enabled:
            self.trace.record(
                self.now,
                "recover",
                pid,
                f"replaying {len(backlog)} buffered event(s)",
                {"replayed": len(backlog)},
            )

    def _adversarial_send(self, sender: int, dest: int, run: list, delay: float, msg_id: int) -> None:
        """Turn one send into the adversary's delivery verdict (slow path).

        An empty verdict omits the message, extra entries are duplicates
        (messages in flight of their own, sharing the ``msg_id`` and the
        open ``run`` the send writes into); the network's fault counters
        account for both.  The copies of a corrupted payload open a run of
        their own.
        """
        payload = run[3]
        adversary = self._adversary
        now = self.now
        delays = adversary.deliveries(sender, dest, now, delay)
        if not delays:
            self._network.record_fault("omitted")
            if self.trace.enabled:
                self.trace.record(
                    now,
                    "omit",
                    dest,
                    f"from={sender} dropped by adversary",
                    {"from": sender},
                )
            return
        if adversary.corrupts:
            mutated = adversary.corrupt(sender, dest, payload, now)
            if mutated is not payload:
                self._network.record_fault("corrupted")
                if self.trace.enabled:
                    self.trace.record(
                        now,
                        "corrupt",
                        dest,
                        f"from={sender} payload tampered in transit",
                        {"from": sender},
                    )
                run = _new_run(sender, mutated, len(delays))
        for position, one_delay in enumerate(delays):
            if position:
                self._network.record_fault("duplicated")
            self._sequence += _SEQUENCE_STEP
            self._put(run, now + one_delay, self._sequence | msg_id, dest, now)

    def _do_sm_op(self, proc: SimProcess, effect: SharedMemEffect) -> None:
        result = effect.operation(*effect.args)
        if self.trace.enabled:
            op_name = str(getattr(effect.operation, "__qualname__", effect.operation))
            self.trace.record(
                self.now,
                "sm-op",
                proc.pid,
                f"{op_name}{effect.args!r} -> {result!r}",
                {"op": op_name},
            )
        self._resume_later(proc.pid, result, self.config.sm_op_delay)

    def _do_local(self, proc: SimProcess, effect: LocalEffect) -> None:
        delay = effect.duration if effect.duration is not None else self.config.local_step_delay
        self._resume_later(proc.pid, None, delay)

    # ------------------------------------------------------------------ ending
    def _final_status(self) -> RunStatus:
        correct = [proc for proc in self._processes.values() if proc.is_correct]
        if correct and all(proc.has_decided for proc in correct):
            return RunStatus.DECIDED
        if any(proc.state is ProcessState.HALTED and "round" in (proc.halt_reason or "") for proc in correct):
            return RunStatus.ROUND_LIMIT
        return RunStatus.DEADLOCK

    def _result(self, status: RunStatus) -> SimulationResult:
        if self.trace_sink is not None:
            self.trace.dump_jsonl(self.trace_sink)
        decisions = {
            pid: proc.decision
            for pid, proc in self._processes.items()
            if proc.has_decided
        }
        decision_times = {
            pid: proc.decision_time
            for pid, proc in self._processes.items()
            if proc.has_decided and proc.decision_time is not None
        }
        correct = {pid for pid, proc in self._processes.items() if proc.is_correct}
        crashed = {pid for pid, proc in self._processes.items() if not proc.is_correct}
        non_terminated = {pid for pid in correct if pid not in decisions}
        rounds = {pid: proc.context.stats.rounds for pid, proc in self._processes.items()}
        stats = {pid: proc.context.stats for pid, proc in self._processes.items()}
        return SimulationResult(
            status=status,
            decisions=decisions,
            decision_times=decision_times,
            correct=correct,
            crashed=crashed,
            non_terminated=non_terminated,
            rounds=rounds,
            end_time=self.now,
            events_processed=self.events_processed,
            process_stats=stats,
        )
