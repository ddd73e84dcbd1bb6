"""A faithful reconstruction of the PRE-refactor simulation kernel.

The flat-hot-path refactor (see ``docs/performance.md``) rewrote the
kernel's event loop in place, so the original code no longer exists in the
tree to benchmark against.  This module is a frozen rebuild of it from the
pre-refactor sources -- dataclass events wrapped in ``order=True``
``LegacyScheduledEvent`` heap entries, frozen-dataclass effects and messages,
dict-based processes and contexts, type-keyed dict dispatch, a per-event
``all(...)`` quiescence scan, per-call ``DelayModel.sample`` draws and a
recursive ``payload_size`` walk per send -- so that
``benchmarks/test_bench_micro.py`` can measure the refactor's speedup as a
live, like-for-like comparison instead of trusting a stale recorded number.

Everything here subclasses the current public classes only to *reuse their
setup plumbing* (construction, RNG streams, result assembly); every member
the hot path touches is overridden with the pre-refactor implementation.
This code is a measurement baseline: do not "optimise" it, and do not use
it outside the benchmarks.
"""

import dataclasses
import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.network.message import payload_size
from repro.network.transport import Network
from repro.sim.context import ProcessContext
from repro.sim.events import EventKind
from repro.sim.kernel import RunStatus, SimulationKernel
from repro.sim.process import ProcessState


class LegacyEvent:
    """The pre-refactor base class of the kernel's event objects."""

    __slots__ = ()


@dataclass(frozen=True)
class LegacyStepResume(LegacyEvent):
    """The pre-refactor frozen-dataclass step event."""

    pid: int
    value: Any = None


@dataclass(frozen=True)
class LegacyMessageDelivery(LegacyEvent):
    """The pre-refactor frozen-dataclass delivery event."""

    pid: int
    message: Any = None


@dataclass(frozen=True)
class LegacyProcessStart(LegacyEvent):
    """The pre-refactor frozen-dataclass start event."""

    pid: int


@dataclass(order=True)
class LegacyScheduledEvent:
    """The pre-refactor heap entry: an event at a virtual time."""

    time: float
    sequence: int
    event: LegacyEvent = field(compare=False)


def legacy_describe(event):
    """The pre-refactor trace text of an event object."""
    parts = []
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if f.name == "message":
            value = getattr(value, "payload", value)
        parts.append(f"{f.name}={value!r}")
    return f"{type(event).__name__.replace('Legacy', '', 1)}({', '.join(parts)})"


@dataclass(frozen=True)
class LegacySendEffect:
    """The pre-refactor frozen-dataclass send effect."""

    dest: int
    payload: Any


@dataclass(frozen=True)
class LegacyWaitEffect:
    """The pre-refactor frozen-dataclass wait effect."""

    predicate: Callable


@dataclass(frozen=True)
class LegacyMessage:
    """The pre-refactor frozen-dataclass message envelope."""

    sender: int
    dest: int
    payload: Any
    send_time: float = 0.0
    msg_id: int = 0


@dataclass
class LegacyProcessStats:
    """The pre-refactor dict-based per-process counters."""

    steps: int = 0
    messages_sent: int = 0
    sm_ops: int = 0
    waits: int = 0
    rounds: int = 0
    coin_flips: int = 0


class LegacyContext(ProcessContext):
    """Pre-refactor process context: dict-based, sub-generator broadcast."""

    def __init__(self, pid, kernel):
        self.pid = pid
        self._kernel = kernel
        self.stats = LegacyProcessStats()

    def send(self, dest, payload):
        self.stats.messages_sent += 1
        yield LegacySendEffect(dest=dest, payload=payload)

    def broadcast(self, payload, include_self=True):
        # The pre-refactor macro delegated to the send() sub-generator once
        # per destination (one extra generator frame per message).
        for dest in self._kernel.process_ids():
            if not include_self and dest == self.pid:
                continue
            yield from self.send(dest, payload)

    def wait_until(self, predicate):
        self.stats.waits += 1
        result = yield LegacyWaitEffect(predicate=predicate)
        return result


@dataclass
class LegacySimProcess:
    """Pre-refactor kernel-side process record (a plain dataclass)."""

    pid: int
    context: Any
    factory: Callable
    generator: Any = None
    state: ProcessState = ProcessState.READY
    mailbox: List[Any] = field(default_factory=list)
    wait_predicate: Optional[Callable] = None
    decision: Any = None
    decision_time: Optional[float] = None
    crash_time: Optional[float] = None
    halt_reason: Optional[str] = None
    started: bool = False
    paused: bool = False
    paused_backlog: List[Any] = field(default_factory=list)

    def start(self):
        self.generator = self.factory(self.context)
        self.started = True

    @property
    def is_correct(self):
        return self.state is not ProcessState.CRASHED

    @property
    def has_decided(self):
        return self.state is ProcessState.DECIDED

    def deliver(self, message):
        self.mailbox.append(message)

    def check_wait(self):
        if self.state is not ProcessState.BLOCKED or self.wait_predicate is None:
            return None
        return self.wait_predicate(self.mailbox)


class LegacyNetwork(Network):
    """Pre-refactor network: per-send validation, sizing, tallies and delay draws."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._next_msg_id = 0
        # The pre-refactor per-process and per-kind tallies, kept here so the
        # baseline still pays for them on every send and delivery.
        self.sent_by_process = defaultdict(int)
        self.delivered_to_process = defaultdict(int)
        self.sent_by_kind = defaultdict(int)

    def prepare(self, sender, dest, payload, time):
        self.validate_endpoints(sender, dest)
        self._next_msg_id += 1
        message = LegacyMessage(
            sender=sender, dest=dest, payload=payload, send_time=time, msg_id=self._next_msg_id
        )
        self.stats.messages_sent += 1
        self.stats.bytes_sent += payload_size(payload)
        self.sent_by_process[sender] += 1
        self.sent_by_kind[type(payload).__name__] += 1
        return message

    def record_delivery(self, message):
        self.stats.messages_delivered += 1
        self.delivered_to_process[message.dest] += 1

    def sample_delay(self, sender, dest):
        delay = self.delay_model.sample(self._rng)
        if sender == dest:
            delay *= self.self_delay_factor
        return delay


class LegacyKernel(SimulationKernel):
    """Pre-refactor event loop: event-object heap, dict dispatch, O(n) scan."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._event_handlers = {
            LegacyProcessStart: self._l_handle_start,
            LegacyStepResume: self._l_handle_resume,
            LegacyMessageDelivery: self._l_handle_delivery,
        }
        self._l_effect_handlers = {
            LegacySendEffect: self._l_do_send,
            LegacyWaitEffect: self._l_do_wait,
        }

    def add_process(self, pid, factory):
        context = LegacyContext(pid, self)
        proc = LegacySimProcess(pid=pid, context=context, factory=factory)
        self._processes[pid] = proc
        self._live += 1
        self._l_schedule(0.0, LegacyProcessStart(pid=pid))
        return proc

    def _schedule(self, time, kind, pid, payload):
        # Route flat-entry scheduling from inherited plumbing back into
        # event-object entries so the queue stays homogeneous.
        if kind == EventKind.STEP_RESUME:
            event = LegacyStepResume(pid=pid, value=payload)
        elif kind == EventKind.MESSAGE_DELIVERY:
            event = LegacyMessageDelivery(pid=pid, message=payload)
        elif kind == EventKind.PROCESS_START:
            event = LegacyProcessStart(pid=pid)
        else:
            raise TypeError(f"the legacy kernel has no event of kind {EventKind(kind).name}")
        self._l_schedule(time, event)

    def _l_schedule(self, time, event):
        self._sequence += 1
        heapq.heappush(self._queue, LegacyScheduledEvent(time=time, sequence=self._sequence, event=event))

    def _l_jitter(self):
        if self.config.scheduling_jitter <= 0:
            return 0.0
        return self._sched_rng.random() * self.config.scheduling_jitter

    def _l_resume_later(self, pid, value, delay):
        self._l_schedule(self.now + delay + self._l_jitter(), LegacyStepResume(pid=pid, value=value))

    def run(self):
        if not self._processes:
            raise RuntimeError("no processes registered")
        queue = self._queue
        trace = self.trace
        adversary = self._adversary
        max_time = self.config.max_time
        while queue:
            entry = heapq.heappop(queue)
            if entry.time > max_time:
                self.now = max_time
                return self._result(RunStatus.TIMEOUT)
            if entry.time > self.now:
                self.now = entry.time
            if adversary is not None:
                extra = adversary.defer(entry.event, self.now)
                if extra > 0.0:
                    self._l_schedule(self.now + extra, entry.event)
                    continue
            self.events_processed += 1
            if trace.enabled:
                trace.record(self.now, "event", self._event_pid(entry.event), legacy_describe(entry.event))
            self._dispatch(entry.event)
            if self._l_all_settled():
                break
        return self._result(self._final_status())

    @staticmethod
    def _event_pid(event):
        return getattr(event, "pid", None)

    def _dispatch(self, event):
        handler = self._event_handlers.get(type(event))
        if handler is None:
            raise TypeError(f"unknown event type: {event!r}")
        handler(event)

    def _l_all_settled(self):
        # The pre-refactor quiescence check: a full scan per event.
        return all(proc.state.is_terminal() for proc in self._processes.values())

    def _l_handle_start(self, event):
        proc = self._processes[event.pid]
        if proc.state is ProcessState.CRASHED:
            return
        proc.start()
        self._l_advance(proc, None)

    def _l_handle_resume(self, event):
        proc = self._processes[event.pid]
        if proc.state.is_terminal():
            return
        self._l_advance(proc, event.value)

    def _l_handle_delivery(self, event):
        proc = self._processes[event.pid]
        if proc.state is ProcessState.CRASHED:
            self.dropped_deliveries += 1
            return
        proc.deliver(event.message)
        if self._network is not None:
            self._network.record_delivery(event.message)
        if proc.state is ProcessState.BLOCKED:
            result = proc.check_wait()
            if result is not None:
                proc.wait_predicate = None
                proc.state = ProcessState.READY
                self._l_resume_later(proc.pid, result, self.config.local_step_delay)

    def _l_advance(self, proc, value):
        proc.context.stats.steps += 1
        try:
            effect = proc.generator.send(value)
        except StopIteration as stop:
            proc.decision = stop.value
            proc.decision_time = self.now
            proc.state = ProcessState.DECIDED if stop.value is not None else ProcessState.HALTED
            return
        handler = self._l_effect_handlers.get(type(effect))
        if handler is None:
            raise TypeError(f"unrecognised effect {effect!r}")
        handler(proc, effect)

    def _l_do_send(self, proc, effect):
        message = self._network.prepare(
            sender=proc.pid, dest=effect.dest, payload=effect.payload, time=self.now
        )
        delay = self._network.sample_delay(sender=proc.pid, dest=effect.dest)
        if self.trace.enabled:
            self.trace.record(self.now, "send", proc.pid, f"to={effect.dest} {effect.payload!r}")
        self._l_schedule(self.now + delay, LegacyMessageDelivery(pid=effect.dest, message=message))
        self._l_resume_later(proc.pid, None, self.config.local_step_delay)

    def _l_do_wait(self, proc, effect):
        result = effect.predicate(proc.mailbox)
        if result is not None:
            self._l_resume_later(proc.pid, result, self.config.local_step_delay)
            return
        proc.state = ProcessState.BLOCKED
        proc.wait_predicate = effect.predicate
