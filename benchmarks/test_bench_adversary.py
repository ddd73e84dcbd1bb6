"""Benchmarks of the adversary subsystem and its no-adversary overhead gate.

The fault-injection hooks touch the kernel loop's three hottest places: event
dispatch (one hoisted ``defers_events`` test per event), the send effect (one
hoisted ``faults_links`` test) and deliveries and steps (one ``paused``
attribute check).  Both flags are False with no adversary installed -- and
with one whose scenario cannot fire the hook, which therefore runs the same
code (``tests/test_adversary_hooks.py`` gates that by call counts).  The
contract is that such a kernel regresses less than 2% against the pre-hook
kernel.  Since the pre-hook code no longer exists, the gate reconstructs it:
a pre-hook ``run_batch`` (a verbatim copy of the current loop, the one
definition of every hot step, minus the adversary/paused branches) is
monkeypatched onto the kernel class and timed against the real one on the
same workload.

Like every timing gate in this repo, the hard assert is live only in
dedicated benchmark runs (``make bench``, i.e. ``--benchmark-only``) with
at least 4 usable CPUs; plain CI executions only smoke the code paths.
"""

import statistics
import struct
import time
from heapq import heappop, heappush, heapreplace

import pytest

from repro.adversary import build_scenario, scenario_names
from repro.cluster.topology import ClusterTopology
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.network.message import Message
from repro.sim.context import BroadcastEffect, RoundLimitExceeded, SendEffect, WaitEffect
from repro.sim.events import EVENT_KIND_NAMES, EventKind, describe_entry
from repro.sim.kernel import (
    _EFFECT_TYPES,
    _MSG_ID_MASK,
    _RECORD,
    _RECORD_SIZE,
    _SEQUENCE_STEP,
    RunStatus,
    SimConfig,
    SimulationKernel,
    _no_network,
    _pack_record,
    _seal,
    _tuple_new,
)
from repro.sim.process import ProcessState

TOPOLOGY = ClusterTopology.figure1_right()
#: Timing-gate knobs: paired interleaved rounds of several runs each, best
#: round kept per variant -- repeatability beats raw sample counts here.
ROUNDS = 9
RUNS_PER_ROUND = 4
OVERHEAD_LIMIT = 1.02

_START = int(EventKind.PROCESS_START)
_RESUME = int(EventKind.STEP_RESUME)
_DELIVERY = int(EventKind.MESSAGE_DELIVERY)
_CRASH = int(EventKind.PROCESS_CRASH)


# --------------------------------------------------------------- pre-hook kernel
def _prehook_run_batch(self, max_events=-1):
    """The event loop exactly as it would be without the hooks.

    A verbatim copy of the body of ``SimulationKernel.run_batch`` minus the
    hoisted capability flags, the ``defers_events`` consultation block, the
    ``faults_links`` branch of the send effect and the ``paused`` branches
    (which exist only for the adversary's pause/recover faults).  Must be
    kept in sync with the real loop:
    ``test_prehook_reconstruction_is_behaviourally_identical`` below and the
    overhead gate are only meaningful while the two differ by exactly those
    branches.  It replaces ``run_batch`` rather than ``run`` so both sides
    run under the same ``collector_paused`` driver.
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
    controller = self._schedule_controller
    handlers = self._handlers
    processes = self._processes
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


def _workload():
    """One deterministic consensus run dominated by kernel event handling."""
    config = ExperimentConfig(
        topology=TOPOLOGY, algorithm="hybrid-local-coin", proposals="split", seed=5
    )
    result = run_consensus(config)
    assert result.terminated
    return result


def _time_workload():
    start = time.perf_counter()
    for _ in range(RUNS_PER_ROUND):
        _workload()
    return time.perf_counter() - start


# -------------------------------------------------------------------- the gate
@pytest.mark.timing
def test_no_adversary_hot_path_overhead_under_2_percent(strict_timing):
    """Hooked kernel vs reconstructed pre-hook kernel on the same workload.

    Rounds are interleaved (hooked, stripped, hooked, ...) so slow drifts of
    the host hit both variants equally; the best round of each side is
    compared, which is the most noise-robust point estimate for a "how fast
    can this go" question.
    """
    hooked_times, stripped_times = [], []
    _workload()  # warm-up (imports, allocator, branch caches)
    for _ in range(ROUNDS if strict_timing else 1):
        hooked_times.append(_time_workload())
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(SimulationKernel, "run_batch", _prehook_run_batch)
            stripped_times.append(_time_workload())

    if not strict_timing:
        pytest.skip(
            "timing gate runs only under --benchmark-only with >= 4 usable CPUs "
            f"(smoke: hooked {hooked_times[0]:.4f}s, stripped {stripped_times[0]:.4f}s)"
        )
    hooked, stripped = min(hooked_times), min(stripped_times)
    overhead = hooked / stripped
    assert overhead < OVERHEAD_LIMIT, (
        f"no-adversary kernel hot path regressed {overhead:.4f}x vs the pre-hook "
        f"kernel (limit {OVERHEAD_LIMIT}x): hooked best {hooked:.4f}s over "
        f"{statistics.median(hooked_times):.4f}s median, stripped best {stripped:.4f}s"
    )


def test_prehook_reconstruction_is_behaviourally_identical():
    """The stripped kernel must produce the same runs, or the gate is fiction."""
    hooked = _workload()
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(SimulationKernel, "run_batch", _prehook_run_batch)
        stripped = _workload()
    assert hooked.sim_result.decisions == stripped.sim_result.decisions
    assert hooked.sim_result.end_time == stripped.sim_result.end_time
    assert hooked.metrics.events_processed == stripped.metrics.events_processed
    assert hooked.metrics.messages_sent == stripped.metrics.messages_sent > 0
    assert hooked.metrics.bytes_sent == stripped.metrics.bytes_sent > 0


# --------------------------------------------------------------- scenario costs
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_bench_scenario_run(benchmark, name):
    """Throughput of one consensus run under each library scenario."""
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(6, 3),
        algorithm="hybrid-local-coin",
        proposals="split",
        seed=7,
        sim=SimConfig(max_rounds=30, max_time=5e4),
        scenario=build_scenario(name, n=6, intensity=0.3),
    )

    def run():
        result = run_consensus(config)
        assert result.report.agreement and result.report.validity
        return result

    benchmark(run)
