"""The discrete-event simulation kernel.

The kernel owns the virtual clock, the event queue, the simulated processes
and the links to the message-passing and shared-memory substrates.  It is an
*asynchronous adversary*: the interleaving of process steps and the delivery
order of messages are controlled entirely by the (seeded) event schedule, so
the algorithms can assume nothing beyond what the paper's model grants them.

The hot path is deliberately flat (see ``docs/performance.md``).  Pending
work lives in two heaps that share one sequence counter: process steps and
fault events as ``(time, sequence, kind, pid, payload)`` tuples -- never more
than one step per live process plus the scheduled faults -- and messages in
flight as ``(time, sequence, dest, sender, payload, send_time, msg_id)``
tuples.  The loop dispatches whichever head is smaller under ``(time,
sequence)``, which is unique, so the order is that of one merged queue.  A
send therefore costs what is ever read of it: one flat tuple while in flight,
and the :class:`~repro.network.message.Message` envelope only when the
delivery is dispatched -- under the paper's "one for all" rule most messages
of a large run are still in flight when everybody has decided.  The loop body
of :meth:`SimulationKernel.run_batch` is the one definition of a delivery, a
process step (first or resumed) and the send, broadcast and wait effects,
quiescence is a live counter instead of a per-event scan, and trace strings
are only built when tracing is enabled.  The public
:class:`~repro.sim.events.Event` dataclasses appear only at the boundary
(adversary consultation, traces, backlogs).

An explicit fault-injection adversary (:mod:`repro.adversary`) can sharpen
the schedule further: when installed, it is consulted at message-send time
(omission, duplication, reordering, partitions) and at event-dispatch time
(per-process slowdowns), and may schedule transient outages via
:meth:`SimulationKernel.schedule_pause`.  Each hook is consulted only when the
installed adversary's scenario can fire it -- the adversary declares that
once, as capability flags the loop hoists into locals -- so a run with no
adversary, or with one whose scenario holds no fault of that kind, pays one
local boolean test per event and one per send.

CPython's cyclic collector is not on the loop's bill either: the two
outermost loop drivers -- :meth:`SimulationKernel.run` and
:meth:`~repro.sim.multikernel.CooperativeScheduler.run` -- execute under
:func:`collector_paused`, and a finished run needs no collector to go away.
Ownership runs one way (kernel -> processes -> contexts, kernel ->
adversary); contexts and the adversary point back at their kernel weakly and
the dispatch tables of bound methods are built per ``run_batch`` call, never
stored, so dropping the kernel frees mailboxes, both heaps' tails, broadcasts
in progress and generators by reference counting, immediately.
"""

from __future__ import annotations

import enum
import gc
import math
from contextlib import contextmanager
from heapq import heappop, heappush
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..network.message import Message
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
from .events import (
    EVENT_KIND_NAMES,
    EventKind,
    describe_entry,
    entry_event,
    event_entry_fields,
)
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
#: it, and a hash probe beats up to five failed type comparisons.
_EFFECT_TYPES = frozenset({SendEffect, BroadcastEffect, WaitEffect, SharedMemEffect, LocalEffect})

#: The envelope of a dispatched delivery is built through ``tuple.__new__``,
#: skipping the ``Message.__new__`` wrapper frame; equivalent to
#: ``Message(sender, dest, payload, send_time, msg_id)``.
_tuple_new = tuple.__new__


def _effect_base(cls: type) -> Optional[type]:
    """The effect type ``cls`` derives from, or ``None`` for a non-effect.

    Subclasses of the known effect types dispatch like their base.  Nothing
    but tests subclasses an effect, so the match is not cached anywhere.
    """
    for base in cls.__mro__[1:]:
        if base in _EFFECT_TYPES:
            return base
    return None


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with CPython's cyclic collector off; restore on exit.

    An event loop allocates a tracked container per in-flight message (its
    heap entry) and one more per delivery (the ``Message``), all acyclic and
    all freed by reference counting the moment they are consumed -- yet every
    full collection re-traverses the whole live population (about 40 % of
    the wall on the ledger's ``wide_n`` workload; see "What the cyclic
    collector cost" in ``docs/performance.md``).  The two outermost loop drivers,
    :meth:`SimulationKernel.run` and
    :meth:`~repro.sim.multikernel.CooperativeScheduler.run`, therefore run
    under this pause.  It restores the state found on entry (a caller who
    had the collector off keeps it off), on every exit path, so it nests.
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

    @property
    def max_round(self) -> int:
        """Largest round reached by any process (0 if none recorded)."""
        return max(self.rounds.values(), default=0)

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
        #: Messages in flight, as flat ``(time, sequence, dest, sender,
        #: payload, send_time, msg_id)`` tuples in a heap of their own.  Both
        #: heaps draw their sequence numbers from the one counter, so
        #: ``(time, sequence)`` orders the union (see :meth:`run_batch`).
        self._inflight: List[Tuple[float, int, int, int, Any, float, int]] = []
        self._sequence = 0
        self._processes: Dict[int, SimProcess] = {}
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
        #: Adversary-deferred events, keyed by the re-queued entry's sequence
        #: number.  Keeps the *same* :class:`Event` object for the second
        #: offer, so the adversary's identity-based once-only bookkeeping
        #: behaves exactly as it did when the queue held event objects.
        self._deferred: Dict[int, Any] = {}
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
    def schedule_controller(self):
        """The installed dispatch-order controller, or ``None``."""
        return self._schedule_controller

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
        self._live += 1
        self._schedule(0.0, _START, pid, None)
        return proc

    def schedule_crash(self, pid: int, time: float) -> None:
        """Schedule process ``pid`` to crash at virtual ``time``."""
        if pid not in self._processes:
            raise KeyError(f"unknown process id {pid}")
        if time < 0:
            raise ValueError("crash time must be non-negative")
        self._schedule(time, _CRASH, pid, None)

    def schedule_pause(self, pid: int, down_at: float, up_at: float) -> None:
        """Schedule a transient outage of ``pid`` during ``[down_at, up_at)``."""
        if pid not in self._processes:
            raise KeyError(f"unknown process id {pid}")
        if down_at < 0 or up_at <= down_at:
            raise ValueError(f"need 0 <= down_at < up_at, got [{down_at}, {up_at})")
        self._schedule(down_at, _PAUSE, pid, None)
        self._schedule(up_at, _RECOVER, pid, None)

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
    def _schedule(self, time: float, kind: int, pid: int, payload: Any) -> None:
        self._sequence += 1
        self._push(time, self._sequence, kind, pid, payload)

    def _push(self, time: float, sequence: int, kind: int, pid: int, payload: Any) -> None:
        """Queue one ``(time, sequence, kind, pid, payload)`` entry by kind.

        The boundary form of every entry is this 5-tuple; a delivery (whose
        payload is the :class:`~repro.network.message.Message`) goes back to
        the in-flight heap as flat fields.
        """
        if kind == _DELIVERY:
            sender, _, content, send_time, msg_id = payload
            heappush(self._inflight, (time, sequence, pid, sender, content, send_time, msg_id))
        else:
            heappush(self._queue, (time, sequence, kind, pid, payload))

    def schedule_event(self, time: float, event) -> None:
        """Schedule a public :class:`~repro.sim.events.Event` object.

        The boundary converter for callers holding event objects (tests,
        tooling); the kernel's own paths schedule flat entries directly.  A
        :class:`~repro.sim.events.MessageDelivery` must carry a
        :class:`~repro.network.message.Message`.
        """
        kind, pid, payload = event_entry_fields(event)
        self._schedule(time, kind, pid, payload)

    def _controlled_pop(self, controller) -> Tuple[float, int, int, int, Any]:
        """Pop the next entry, letting ``controller`` pick among head ties.

        Entries of either heap sharing the earliest virtual timestamp form
        the tie set, offered as ``(time, sequence, kind, pid, payload)``
        tuples in sequence order (the order the uncontrolled kernel would
        dispatch them; a delivery's payload is its ``Message``).  The
        controller returns the index to dispatch now, and the rest are
        pushed back with their original sequence numbers, so they re-enter
        later tie sets unchanged.  A single-entry head is never offered --
        there is no scheduling freedom to exercise.
        """
        queue = self._queue
        inflight = self._inflight
        time = min(heap[0][0] for heap in (queue, inflight) if heap)
        ties = []
        while queue and queue[0][0] == time:
            ties.append(heappop(queue))
        while inflight and inflight[0][0] == time:
            _, sequence, dest, sender, payload, send_time, msg_id = heappop(inflight)
            message = Message(sender, dest, payload, send_time, msg_id)
            ties.append((time, sequence, _DELIVERY, dest, message))
        if len(ties) == 1:
            return ties[0]
        ties.sort()  # by sequence: unique, so no later field is ever compared
        index = controller.choose(self.now, time, ties)
        if not 0 <= index < len(ties):
            raise ValueError(
                f"schedule controller chose index {index} among {len(ties)} tied entries"
            )
        chosen = ties.pop(index)
        for entry in ties:
            self._push(*entry)
        return chosen

    def _resume_later(self, pid: int, value: Any, delay: float) -> None:
        jitter = self.config.scheduling_jitter
        if jitter > 0:
            time = self.now + delay + self._sched_random() * jitter
        else:
            time = self.now + delay
        self._sequence += 1
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
        or out of budget with work queued, only with respect to *both*.

        Message deliveries and process steps -- the first
        (``PROCESS_START``) and every resume, with the send, broadcast and
        wait effects a step can yield -- are defined in this loop body and
        nowhere else, so the hot chain runs on loop-hoisted locals with no
        intervening call frames; the recover replay re-queues its backlog and
        so comes back through the same code.  A broadcast is walked here, one
        destination per step through the one send site, and its generator is
        resumed once at the end.  Only the fault events and the shared-memory
        and local-step effects are methods.  The golden tests pin what an
        event does: full e1-e11 summaries against a pre-refactor fixture, and
        whole traces against the digests of the single-heap loop.
        """
        if max_events == 0 or max_events < -1:
            raise ValueError(f"max_events must be positive or -1, got {max_events}")
        if not self._processes:
            raise RuntimeError("no processes registered")
        budget = max_events
        queue = self._queue
        inflight = self._inflight
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
        net_stats = network.stats if network is not None else None
        sched_random = self._sched_random
        effect_handlers = self._effect_handlers
        config = self.config
        max_time = config.max_time
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
                    time, sequence, kind, pid, payload = self._controlled_pop(controller)
                elif inflight and (not queue or inflight[0] < queue[0]):
                    # The delivery is due first.  ``(time, sequence)`` is
                    # unique across both heaps, so the tuple comparison never
                    # reaches the fields in which the two shapes differ.
                    time, sequence, pid, sender, payload, send_time, msg_id = heappop(inflight)
                    kind = _DELIVERY
                    # The one place a message in flight becomes a ``Message``.
                    payload = _tuple_new(Message, (sender, pid, payload, send_time, msg_id))
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
                    event = self._deferred.pop(sequence, None)
                    if event is None:
                        event = entry_event(kind, pid, payload)
                    elif kind == _DELIVERY:
                        # Offered again: the same Event, and its own Message.
                        payload = event.message
                    extra = adversary.defer(event, self.now)
                    if extra > 0.0:
                        if extra == _INF:
                            # An infinite deferral is an omission: only
                            # deliveries may be dropped this way (dropping a
                            # step would wedge the process outright).
                            if kind != _DELIVERY:
                                raise RuntimeError(
                                    f"adversary returned an infinite deferral for "
                                    f"non-delivery event {event!r}"
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
                        self._schedule(self.now + extra, kind, pid, payload)
                        self._deferred[self._sequence] = event
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
                        # seam); a delivery entry's pid is the message's dest.
                        net_stats.messages_delivered += 1
                        net_stats.delivered_to_process[pid] += 1
                    if state is blocked:
                        result = proc.wait_predicate(proc.mailbox)
                        if result is not None:
                            proc.wait_predicate = None
                            proc.state = ready
                            if jitter > 0:
                                time = self.now + local_step_delay + sched_random() * jitter
                            else:
                                time = self.now + local_step_delay
                            self._sequence += 1
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
                            # A subclass of an effect runs its base's code.
                            cls = _effect_base(cls)
                            if cls is None:
                                raise TypeError(
                                    f"process {pid} yielded {effect!r}, which is not a recognised effect"
                                )
                        if cls is BroadcastEffect:
                            dests = list(effect.dests)
                            if not dests:
                                raise ValueError(
                                    f"process {pid} yielded {effect!r}, which has no destination"
                                )
                            dests.reverse()
                            broadcast = proc.broadcast = (dests, effect.payload)
                        elif cls is SendEffect:
                            dest = effect.dest
                            payload = effect.payload
                        elif cls is WaitEffect:
                            result = effect.predicate(proc.mailbox)
                            if result is not None:
                                if jitter > 0:
                                    time = self.now + local_step_delay + sched_random() * jitter
                                else:
                                    time = self.now + local_step_delay
                                self._sequence += 1
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
                        dests, payload = broadcast
                        dest = dests.pop()
                        if not dests:
                            proc.broadcast = None
                        stats.messages_sent += 1
                    # The one send: a SendEffect, or one destination of a
                    # BroadcastEffect.  The message stays flat while in flight.
                    if network is None:
                        raise RuntimeError("no network attached; cannot handle SendEffect")
                    now = self.now
                    msg_id, delay = network.transmit(pid, dest, payload)
                    if trace_enabled:
                        trace.record(now, "send", pid, f"to={dest} {payload!r}", {"dest": dest})
                    if not faults_links:
                        # One batched sequence bump covers both pushes;
                        # the delivery keeps the lower number, exactly
                        # as two bumps would assign.
                        sequence = self._sequence + 2
                        self._sequence = sequence
                        heappush(inflight, (now + delay, sequence - 1, dest, pid, payload, now, msg_id))
                    else:
                        self._adversarial_send(pid, dest, payload, delay, msg_id)
                        sequence = self._sequence + 1
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
        """Begin a transient outage (see :class:`~repro.sim.events.ProcessPause`)."""
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
        for kind, event_pid, event_payload in backlog:
            self._schedule(self.now, kind, event_pid, event_payload)
        if self.trace.enabled:
            self.trace.record(
                self.now,
                "recover",
                pid,
                f"replaying {len(backlog)} buffered event(s)",
                {"replayed": len(backlog)},
            )

    def _adversarial_send(
        self, sender: int, dest: int, payload: Any, delay: float, msg_id: int
    ) -> None:
        """Turn one send into the adversary's delivery verdict (slow path).

        An empty verdict omits the message, extra entries are duplicates
        (in-flight entries of their own, sharing the ``msg_id``); the
        network's fault counters account for both.
        """
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
                payload = mutated
        for position, one_delay in enumerate(delays):
            if position:
                self._network.record_fault("duplicated")
            self._sequence += 1
            heappush(
                self._inflight,
                (now + one_delay, self._sequence, dest, sender, payload, now, msg_id),
            )

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
