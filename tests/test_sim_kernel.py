"""Unit tests of the discrete-event kernel: scheduling, effects, crashes."""

import ast
import dataclasses
import inspect
import math
import tracemalloc

import pytest

import repro.sim.kernel as kernel_module
from repro.network.delays import ConstantDelay
from repro.network.transport import Network, TrafficStats
from repro.network.message import Message
from repro.sim.context import BroadcastEffect, LocalEffect, SendEffect, SharedMemEffect, WaitEffect
from repro.sim.events import EventKind
from repro.sim.kernel import RunStatus, SimConfig, SimulationKernel
from repro.sim.process import ProcessState
from repro.sim.rng import RandomSource
from repro.sharedmem.register import AtomicRegister


def make_kernel(n=2, seed=0, **config_kwargs):
    kernel = SimulationKernel(seed=seed, config=SimConfig(**config_kwargs))
    network = Network(n, delay_model=ConstantDelay(1.0), rng=RandomSource(seed))
    kernel.attach_network(network)
    return kernel, network


@pytest.mark.parametrize(
    "field, value",
    [
        ("local_step_delay", -1.0),
        ("local_step_delay", math.inf),
        ("sm_op_delay", math.nan),
        ("sm_op_delay", -1e-3),
        ("scheduling_jitter", -0.5),
        ("scheduling_jitter", math.nan),
        ("max_time", math.nan),
        ("max_time", 0.0),
        ("max_time", -1.0),
        ("max_rounds", 0),
        ("max_rounds", 2.5),
        ("max_rounds", True),
        ("trace_max_entries", -5),
        ("trace_max_entries", True),
        ("trace_max_entries", 2.5),
        ("trace_max_entries", None),
    ],
)
def test_sim_config_refuses_nonsense_naming_the_field(field, value):
    with pytest.raises(ValueError, match=rf"SimConfig\.{field} must"):
        SimConfig(**{field: value})


def test_sim_config_edge_values_stay_legal_and_the_repr_is_unchanged():
    SimConfig(
        local_step_delay=0.0,
        sm_op_delay=0.0,
        scheduling_jitter=0.0,
        max_time=math.inf,
        max_rounds=None,
        trace_max_entries=0,
    )
    assert repr(SimConfig()) == (
        "SimConfig(max_time=1000000000.0, max_rounds=500, local_step_delay=0.0001, "
        "sm_op_delay=0.001, scheduling_jitter=1e-05, trace=False, trace_max_entries=100000)"
    )


def test_run_without_processes_raises():
    kernel, _ = make_kernel()
    with pytest.raises(RuntimeError):
        kernel.run()


def _idle(ctx):
    yield from ctx.local_step()
    return "idle"


def test_duplicate_process_id_rejected():
    kernel, _ = make_kernel()
    kernel.add_process(0, _idle)
    with pytest.raises(ValueError):
        kernel.add_process(0, _idle)


def test_single_process_returns_decision():
    kernel, _ = make_kernel(n=1)

    def behaviour(ctx):
        yield from ctx.local_step()
        return 42

    kernel.add_process(0, behaviour)
    result = kernel.run()
    assert result.status is RunStatus.DECIDED
    assert result.decisions == {0: 42}
    assert result.decision_times[0] > 0


def test_process_returning_none_is_halted_not_decided():
    kernel, _ = make_kernel(n=1)

    def behaviour(ctx):
        yield from ctx.local_step()
        return None

    kernel.add_process(0, behaviour)
    result = kernel.run()
    assert result.status is not RunStatus.DECIDED
    assert result.decisions == {}


def test_message_send_and_wait_roundtrip():
    kernel, network = make_kernel(n=2)
    received = {}

    def sender(ctx):
        yield from ctx.send(1, "ping")
        return "sent"

    def receiver(ctx):
        msgs = yield from ctx.wait_until(lambda mailbox: list(mailbox) or None)
        received[ctx.pid] = [m.payload for m in msgs]
        return "got"

    kernel.add_process(0, sender)
    kernel.add_process(1, receiver)
    result = kernel.run()
    assert result.status is RunStatus.DECIDED
    assert received[1] == ["ping"]
    assert network.stats.messages_sent == 1
    assert network.stats.messages_delivered == 1


def test_broadcast_reaches_every_process_including_self():
    kernel, network = make_kernel(n=3)
    seen = {}

    def proc(ctx):
        yield from ctx.broadcast(("hello", ctx.pid))
        msgs = yield from ctx.wait_until(
            lambda mailbox: mailbox if len(mailbox) >= 3 else None
        )
        seen[ctx.pid] = sorted(m.payload[1] for m in msgs)[:3]
        return ctx.pid

    for pid in range(3):
        kernel.add_process(pid, proc)
    result = kernel.run()
    assert result.status is RunStatus.DECIDED
    for pid in range(3):
        assert seen[pid] == [0, 1, 2]
    assert network.stats.messages_sent == 9


def test_crashed_process_takes_no_steps_and_counts_as_faulty():
    kernel, _ = make_kernel(n=2)
    progress = []

    def chatty(ctx):
        while True:
            progress.append(ctx.now())
            yield from ctx.local_step(1.0)

    def quiet(ctx):
        yield from ctx.local_step(10.0)
        return "done"

    kernel.add_process(0, chatty)
    kernel.add_process(1, quiet)
    kernel.schedule_crash(0, 3.5)
    result = kernel.run()
    assert 0 in result.crashed
    assert 1 in result.correct
    assert result.decisions == {1: "done"}
    # The chatty process stops making progress after its crash time.
    assert all(t <= 3.5 for t in progress)


def test_crash_of_unknown_process_rejected():
    kernel, _ = make_kernel(n=1)
    kernel.add_process(0, _idle)
    with pytest.raises(KeyError):
        kernel.schedule_crash(7, 1.0)
    with pytest.raises(ValueError):
        kernel.schedule_crash(0, -1.0)


@pytest.mark.parametrize(
    "schedule, args, shown",
    [
        ("schedule_crash", (1, math.nan), "nan"),
        ("schedule_crash", (1, -math.inf), "-inf"),
        ("schedule_pause", (1, math.nan, 5.0), r"\[nan, 5\.0\)"),
        ("schedule_pause", (1, 1.0, math.nan), r"\[1\.0, nan\)"),
        ("schedule_pause", (1, math.nan, math.nan), r"\[nan, nan\)"),
        ("schedule_pause", (1, math.inf, math.inf), r"\[inf, inf\)"),
    ],
)
def test_nan_crash_and_pause_times_are_refused_naming_the_pid_and_value(schedule, args, shown):
    kernel, _ = make_kernel(n=2)
    kernel.add_process(0, _idle)
    kernel.add_process(1, _idle)
    with pytest.raises(ValueError, match=rf"process 1 .*{shown}"):
        getattr(kernel, schedule)(*args)
    assert len(kernel._queue) == 2, "a refused fault must not reach the step heap"


def test_infinite_crash_and_recover_times_keep_their_meaning():
    kernel, _ = make_kernel(n=2)
    kernel.add_process(0, _idle)
    kernel.add_process(1, _idle)
    kernel.schedule_crash(0, math.inf)  # never crashes
    kernel.schedule_pause(1, 1e-5, math.inf)  # down for good before it finishes
    result = kernel.run()
    assert result.status is RunStatus.TIMEOUT and result.end_time == kernel.config.max_time
    assert result.decisions == {0: "idle"} and result.crashed == set()
    assert kernel.process(1).paused


def test_messages_to_crashed_process_are_dropped():
    kernel, _ = make_kernel(n=3)

    def sender(ctx):
        yield from ctx.local_step(5.0)
        yield from ctx.send(1, "late")
        return "sent"

    def victim(ctx):
        yield from ctx.wait_until(lambda mailbox: list(mailbox) or None)
        return "never"

    def patient(ctx):
        # Keeps the simulation alive past the late delivery, then gives up.
        yield from ctx.wait_until(lambda mailbox: list(mailbox) or None)
        return "never either"

    kernel.add_process(0, sender)
    kernel.add_process(1, victim)
    kernel.add_process(2, patient)
    kernel.schedule_crash(1, 1.0)
    result = kernel.run()
    assert result.decisions == {0: "sent"}
    assert kernel.dropped_deliveries == 1
    assert result.status is RunStatus.DEADLOCK  # the patient process never hears anything


def test_blocked_process_wakes_only_when_predicate_satisfied():
    kernel, _ = make_kernel(n=2)

    def sender(ctx):
        for index in range(3):
            yield from ctx.send(1, index)
        return "sent"

    def receiver(ctx):
        msgs = yield from ctx.wait_until(lambda mailbox: mailbox if len(mailbox) >= 3 else None)
        return len(msgs)

    kernel.add_process(0, sender)
    kernel.add_process(1, receiver)
    result = kernel.run()
    assert result.decisions[1] >= 3


def test_shared_memory_effect_executes_atomically_and_returns_result():
    kernel, _ = make_kernel(n=1)
    register = AtomicRegister("r", 10)

    def proc(ctx):
        value = yield from ctx.sm_op(register.read)
        yield from ctx.sm_op(register.write, value + 1)
        return (yield from ctx.sm_op(register.read))

    kernel.add_process(0, proc)
    result = kernel.run()
    assert result.decisions[0] == 11
    assert register.stats.reads == 2 and register.stats.writes == 1


def test_unknown_effect_raises_type_error():
    kernel, _ = make_kernel(n=1)

    def proc(ctx):
        yield "this is not an effect"

    kernel.add_process(0, proc)
    with pytest.raises(TypeError, match="process 0 yielded 'this is not an effect'"):
        kernel.run()


def _inbox(mailbox):
    return list(mailbox) or None


_REGISTER = AtomicRegister("r", 10)
#: Per known effect type, a builder of that effect as the given (sub)class.
EFFECTS = {
    SendEffect: lambda cls: cls(dest=0, payload="ping"),
    BroadcastEffect: lambda cls: cls(dests=(1, 0), payload="ping"),
    WaitEffect: lambda cls: cls(predicate=_inbox),
    SharedMemEffect: lambda cls: cls(operation=_REGISTER.read),
    LocalEffect: lambda cls: cls(duration=0.5),
}


@pytest.mark.parametrize("base", list(EFFECTS), ids=lambda cls: cls.__name__)
def test_effect_subclasses_are_refused(base):
    """Exactly the five effect types are effects; a subclass is named and refused."""
    kernel, network = make_kernel(n=1)
    subclass = type(f"Debug{base.__name__}", (base,), {})

    def proc(ctx):
        yield EFFECTS[base](subclass)
        return "unreachable"

    kernel.add_process(0, proc)
    with pytest.raises(TypeError, match=f"process 0 yielded .*Debug{base.__name__} is not one of"):
        kernel.run()
    assert network.stats.messages_sent == 0


@pytest.mark.parametrize("outcome", ["running", "decided", "halted"])
def test_second_start_raises_whatever_the_process_has_become(outcome):
    kernel, _ = make_kernel(n=2)

    def proc(ctx):
        yield from ctx.local_step(1.0)
        if outcome == "running":
            yield from ctx.wait_until(_inbox)
        return {"decided": "done", "halted": None}[outcome]

    def bystander(ctx):  # keeps the run going past pid 0's settling
        yield from ctx.local_step(10.0)
        return "late"

    kernel.add_process(0, proc)
    kernel.add_process(1, bystander)
    kernel._schedule(5.0, EventKind.PROCESS_START, 0, None)
    with pytest.raises(RuntimeError, match="process 0 already started"):
        kernel.run()
    expected = {"running": ProcessState.BLOCKED, "decided": ProcessState.DECIDED, "halted": ProcessState.HALTED}
    assert kernel.process(0).state is expected[outcome]


class _FaultsFirst:
    """Schedule controller: among tied entries, dispatch crash/pause first."""

    def choose(self, now, time, entries):
        for index, entry in enumerate(entries):
            if entry[2] in (EventKind.PROCESS_CRASH, EventKind.PROCESS_PAUSE):
                return index
        return 0


def test_start_reaching_a_crashed_process_is_dropped():
    kernel, _ = make_kernel(n=2)
    kernel.add_process(0, _idle)
    kernel.add_process(1, _idle)
    # The crash (time 0, like the start) must dispatch first: a controller
    # puts the tie's fault event ahead of the start add_process queued.
    kernel.install_schedule_controller(_FaultsFirst())
    kernel.schedule_crash(0, 0.0)
    result = kernel.run()
    assert result.crashed == {0} and result.decisions == {1: "idle"}
    assert not kernel.process(0).started
    assert kernel.process(0).stats.steps == 0


def test_start_dispatched_into_an_outage_is_buffered_and_replayed_once():
    def run(outage):
        kernel, _ = make_kernel(n=1, trace=True)
        first_step_at = []

        def proc(ctx):
            first_step_at.append(ctx.now())
            yield from ctx.local_step(1.0)
            return "done"

        kernel.add_process(0, proc)
        if outage:
            kernel.install_schedule_controller(_FaultsFirst())
            kernel.schedule_pause(0, 0.0, 4.0)
        result = kernel.run()
        starts = [e.time for e in kernel.trace.entries if e.kind == "event" and "ProcessStart" in e.detail]
        return result, first_step_at, starts, kernel.process(0).stats.steps

    result, first_step_at, starts, steps = run(outage=True)
    assert result.decisions == {0: "done"}
    assert first_step_at == [4.0]  # one first step, taken at up_at
    assert starts == [0.0, 4.0]  # dispatched into the outage, then replayed
    # The buffered dispatch is not a step: as many as with no outage at all.
    assert steps == run(outage=False)[3] == 2


def _calls_of(tree, *attribute_chain):
    """How many calls in ``tree`` are made on ``<...>.a.b(...)`` for chain (a, b)."""

    def matches(node):
        for name in reversed(attribute_chain):
            if not (isinstance(node, ast.Attribute) and node.attr == name):
                return False
            node = node.value
        return True

    return sum(isinstance(node, ast.Call) and matches(node.func) for node in ast.walk(tree))


def _message_constructions(tree):
    """Calls that build a ``Message``: ``Message(...)`` or ``<new>(Message, ...)``."""

    def names_message(node):
        return isinstance(node, ast.Name) and node.id == "Message"

    return sum(
        isinstance(node, ast.Call) and (names_message(node.func) or any(map(names_message, node.args)))
        for node in ast.walk(tree)
    )


def _calls_of_name(tree, name):
    """How many calls in ``tree`` are made on the bare name ``name``."""
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        for node in ast.walk(tree)
    )


def _stores_of(tree, owner, attribute):
    """Assignments (plain or augmented) in ``tree`` to ``owner.attribute``."""

    def is_target(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attribute
            and isinstance(node.value, ast.Name)
            and node.value.id == owner
        )

    return sum(
        (isinstance(node, ast.Assign) and any(map(is_target, node.targets)))
        or (isinstance(node, ast.AugAssign) and is_target(node.target))
        for node in ast.walk(tree)
    )


def test_each_kernel_step_has_one_definition():
    """A count, not a stopwatch: a second copy of a step cannot come back unnoticed."""
    tree = ast.parse(inspect.getsource(kernel_module))
    assert _calls_of(tree, "generator", "send") == 1  # the process step
    assert _calls_of(tree, "mailbox", "append") == 1  # the delivery
    (run_batch,) = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "run_batch"
    ]
    assert _message_constructions(run_batch) == 1  # the envelope, built when dispatched
    # The send, of a SendEffect or of a broadcast: accounted inline, with no
    # per-send call into the network.
    assert _calls_of(tree, "transmit") == 0
    assert _calls_of_name(tree, "pop_delay") == 1  # the delay-cache pop
    assert _stores_of(tree, "net_stats", "messages_sent") == 1  # the msg_id bump
    assert _stores_of(tree, "net_stats", "bytes_sent") == 1
    # What the send no longer maintains: per-process and per-kind tallies.
    stats = TrafficStats()
    assert [f.name for f in dataclasses.fields(stats) if isinstance(getattr(stats, f.name), dict)] == []


# ------------------------------------------------ what a send costs, as counts
def _early_decider(ctx):
    """Broadcast, decide on the first two deliveries: leaves messages in flight."""
    yield from ctx.broadcast(("hello", ctx.pid))
    yield from ctx.wait_until(lambda mailbox: True if len(mailbox) >= 2 else None)
    return 1


def test_step_heap_holds_at_most_one_entry_per_process():
    n = 24
    kernel, network = make_kernel(n=n)

    def proc(ctx):
        yield from ctx.broadcast(ctx.pid)
        yield from ctx.wait_until(lambda mailbox: True if len(mailbox) >= n else None)
        return 1

    for pid in range(n):
        kernel.add_process(pid, proc)
    batches = 0
    while kernel.run_batch(64) is None:
        batches += 1
        assert len(kernel._queue) <= n, "messages in flight must not sit in the step heap"
    assert batches >= 2 * n * n // 64 and network.stats.messages_delivered == n * n


def test_messages_in_flight_are_flat_and_become_messages_when_delivered():
    n = 8
    kernel = SimulationKernel(seed=5)
    network = Network(n, rng=kernel.rng)  # uniform delays: early deciders outrun slow messages
    kernel.attach_network(network)
    for pid in range(n):
        kernel.add_process(pid, _early_decider)
    assert kernel.run().status is RunStatus.DECIDED
    stats = network.stats
    in_flight = kernel_module._in_flight_messages(kernel)
    assert len(in_flight) == stats.messages_sent - stats.messages_delivered > 0
    assert len(kernel._inflight) < len(in_flight), "one head per run, not per message"
    for head in kernel._inflight:
        records, end = head[5][0], head[5][5]
        assert type(records) in (bytes, bytearray) and end % 26 == 0 and len(records) >= end
        assert not any(isinstance(field, Message) for field in head)
        fields = list(kernel_module._RECORD.iter_unpack(records[:end]))
        assert all(len(record) == 4 for record in fields)
        assert not any(isinstance(field, Message) for record in fields for field in record)
        assert not isinstance(head[5][3], Message)  # nor in the origin
    mailboxes = [proc.mailbox for proc in kernel.processes.values()]
    assert sum(map(len, mailboxes)) == stats.messages_delivered
    assert all(type(message) is Message for mailbox in mailboxes for message in mailbox)


def _broadcast_once(ctx):
    yield from ctx.broadcast(("hello", ctx.pid))
    return 1


def test_a_message_in_flight_costs_at_most_40_bytes():
    """128 processes each broadcast once and decide before any delivery.

    The run's traced growth, over its 16,384 undelivered messages, is what
    one message in flight costs: its 26-byte record in its broadcast's run
    (sized for all 128 destinations), the run's list and heads shared by
    its 128 messages, and a few bytes of the processes' own state.
    Readings of this measurement as a plain script: 39.6 / 39.5 / 34.1 /
    34.1 B on CPython 3.9 / 3.10 / 3.11 / 3.12 with records in runs,
    against 81.9 / 81.5 / 76.0 / 76.0 B with the packed 30-byte entry per
    message they replaced (taken together, on one host); the five-field
    tuple before that read 177.0 / 176.6 / 171.0 / 171.1 B.
    """
    n = 128
    kernel, network = make_kernel(n=n, seed=1)
    for pid in range(n):
        kernel.add_process(pid, _broadcast_once)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = kernel.run()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.status is RunStatus.DECIDED
    assert len(kernel_module._in_flight_messages(kernel)) == network.stats.messages_sent == n * n
    per_message = (after - before) / (n * n)
    assert per_message <= 40, f"{per_message:.1f} B per message in flight"


class _CountingGenerator:
    """Delegates to a generator, counting how often the kernel resumes it."""

    def __init__(self, generator):
        self.generator = generator
        self.sends = 0

    def send(self, value):
        self.sends += 1
        return self.generator.send(value)


def test_a_broadcast_resumes_its_generator_once():
    n = 8
    kernel, network = make_kernel(n=n)

    def proc(ctx):
        yield from ctx.broadcast("ping")
        return "done"

    kernel.add_process(0, lambda ctx: _CountingGenerator(proc(ctx)))
    for pid in range(1, n):
        kernel.add_process(pid, _idle)
    result = kernel.run()
    sender = kernel.process(0)
    assert result.decisions[0] == "done"
    # One send per destination, each its own step, then the step that returns.
    assert sender.stats.steps == n + 1 and sender.stats.messages_sent == n
    assert network.stats.messages_sent == n
    # Everybody decided before the first delivery: one message per destination in flight.
    in_flight = (message for _, _, message in kernel_module._in_flight_messages(kernel))
    assert sorted((message.sender, message.dest) for message in in_flight) == [(0, pid) for pid in range(n)]
    # Resumed to yield the broadcast, and once more when it is exhausted.
    assert sender.generator.sends == 2


def test_a_message_in_flight_is_four_fields_and_a_broadcast_shares_one_run():
    n = 8
    kernel, network = make_kernel(n=n)

    def proc(ctx):
        yield from ctx.send(3, "direct")
        yield from ctx.broadcast("ping")
        return "done"

    kernel.add_process(0, proc)
    for pid in range(1, n):
        kernel.add_process(pid, _idle)
    kernel.run()
    # One run per send effect, holding its (sender, payload) origin: the
    # broadcast's shared by all of its destinations.  Nothing fell due, so
    # both are open and each has one head.
    runs = [head[5] for head in sorted(kernel._inflight)]
    assert len(runs) == 2 and runs[0] is not runs[1]
    direct, broadcast = sorted(runs, key=lambda run: len(run[0]))
    assert (direct[2], direct[3]) == (0, "direct") and (broadcast[2], broadcast[3]) == (0, "ping")
    assert all(type(run[0]) is bytearray and run[1] == -1 for run in runs)  # both open
    assert (len(direct[0]), len(broadcast[0])) == (direct[5], broadcast[5]) == (26, 26 * n)  # sized exactly
    record = kernel_module._RECORD
    entries = [*record.iter_unpack(direct[0]), *record.iter_unpack(broadcast[0])]
    assert len(entries) == network.stats.messages_sent == n + 1
    assert all(len(entry) == 4 for entry in entries)
    # The key orders as the sequence number and carries the msg_id below it.
    mask = (1 << 32) - 1
    assert [entry[1] & mask for entry in entries] == list(range(1, n + 2))
    assert len({entry[1] >> 32 for entry in entries}) == n + 1
    in_flight = sorted(kernel_module._in_flight_messages(kernel), key=lambda item: item[1])
    assert [(time, key) for time, key, _ in in_flight] == [entry[:2] for entry in entries]
    messages = [message for _, _, message in in_flight]
    assert all(type(message) is Message for message in messages)
    assert [tuple(message) for message in messages] == [
        (0, dest, payload, entry[3], msg_id)
        for msg_id, (entry, dest, payload) in enumerate(
            zip(entries, [3, *range(n)], ["direct"] + ["ping"] * n), start=1
        )
    ]


@pytest.mark.parametrize("as_broadcast", [False, True])
def test_the_msg_id_cap_is_refused_like_transmit(as_broadcast):
    """The send that would reach ``msg_id == 2**32`` raises before it counts."""
    cap = 1 << 32
    kernel, network = make_kernel(n=2)
    reference = Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(0))
    for net in (network, reference):
        net.stats.messages_sent = cap - 2

    def proc(ctx):
        if as_broadcast:
            yield BroadcastEffect((1, 0, 1), "last")
        else:
            for _ in range(3):
                yield from ctx.send(1, "last")

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    with pytest.raises(OverflowError) as raised:
        kernel.run()
    assert reference.transmit(0, 1, "last")[0] == cap - 1
    with pytest.raises(OverflowError) as expected:
        reference.transmit(0, 1, "last")
    assert str(raised.value) == str(expected.value)
    assert "4,294,967,296 sends" in str(raised.value)
    assert network.stats == reference.stats
    ((_, _, message),) = kernel_module._in_flight_messages(kernel)
    assert message.msg_id == cap - 1


def test_a_sequence_counter_past_the_key_cap_is_refused_naming_it():
    """The 64-bit key holds ``sequence | msg_id``: the send past it raises."""
    kernel, network = make_kernel(n=2)

    def proc(ctx):
        yield from ctx.send(1, "late")

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    kernel._sequence = (1 << 64) - (1 << 32)  # the next sequence number is 2**64
    cap = r"sequence counter passed the key cap 18,446,744,073,709,551,616 \(2\*\*64\)"
    with pytest.raises(OverflowError, match=cap):
        kernel.run()
    assert not kernel._inflight
    # A re-queued delivery goes through the same check.
    message = Message(0, 1, "late", 0.0, 1)
    with pytest.raises(OverflowError, match=cap):
        kernel._schedule(1.0, EventKind.MESSAGE_DELIVERY, 1, message)


def test_a_dest_past_the_packed_field_is_refused_naming_it():
    """A network object wider than ``Network`` allows cannot reach ``struct``'s error."""
    kernel, network = make_kernel(n=2)
    network.n = 1 << 17  # the Network constructor refuses this size

    def proc(ctx):
        yield from ctx.send(1 << 16, "far")

    kernel.add_process(0, proc)
    kernel.add_process(1, _idle)
    with pytest.raises(ValueError, match=r"dest 65536 is outside the 0\.\.65535 a message in flight holds"):
        kernel.run()


def test_bad_due_times_are_refused_by_the_checked_packer():
    pack = kernel_module._pack_record
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="due time must be >= 0 and not NaN"):
            pack(bad, 1, 0, 0.0)
    # A negative zero would sort after every record: it is packed as 0.0.
    assert pack(-0.0, 1, 0, 0.0) == pack(0.0, 1, 0, 0.0)
    assert pack(math.inf, (1 << 64) - 1, (1 << 16) - 1, 0.0)  # every field's last value


def test_broadcast_effect_without_destinations_is_refused():
    kernel, _ = make_kernel(n=2)

    def proc(ctx):
        yield BroadcastEffect(dests=(), payload="ping")

    kernel.add_process(0, _idle)
    kernel.add_process(1, proc)
    with pytest.raises(ValueError, match="process 1 yielded BroadcastEffect.*no destination"):
        kernel.run()


def test_crash_inside_a_broadcast_delivers_to_a_prefix_only():
    n = 8
    kernel, network = make_kernel(n=n, scheduling_jitter=0.0, trace=True)

    def sender(ctx):
        yield from ctx.broadcast("ping")
        return "sent"

    def receiver(ctx):
        yield from ctx.wait_until(_inbox)
        return "got"

    kernel.add_process(0, sender)
    for pid in range(1, n):
        kernel.add_process(pid, receiver)
    # Sends go out one local step (1e-4) apart, starting at 0: four precede the crash.
    kernel.schedule_crash(0, 3.5e-4)
    result = kernel.run()
    prefix = [0, 1, 2, 3]
    assert [entry.data["dest"] for entry in kernel.trace.of_kind("send")] == prefix
    stats = kernel.process(0).stats
    assert stats.messages_sent == network.stats.messages_sent == len(prefix)
    assert [len(kernel.process(pid).mailbox) for pid in range(1, n)] == [1, 1, 1, 0, 0, 0, 0]
    # The sender's own copy reaches a crashed process; the rest of the prefix decides.
    assert kernel.dropped_deliveries == 1
    assert result.decisions == {1: "got", 2: "got", 3: "got"}
    assert result.crashed == {0} and result.status is RunStatus.DEADLOCK


def test_round_limit_halts_process():
    kernel, _ = make_kernel(n=1, max_rounds=3)

    def proc(ctx):
        r = 0
        while True:
            r += 1
            ctx.mark_round(r)
            yield from ctx.local_step()

    kernel.add_process(0, proc)
    result = kernel.run()
    assert result.status is RunStatus.ROUND_LIMIT
    assert result.decisions == {}
    assert result.rounds[0] == 4


def test_max_time_produces_timeout_status():
    kernel, _ = make_kernel(n=1, max_time=5.0)

    def proc(ctx):
        while True:
            yield from ctx.local_step(1.0)

    kernel.add_process(0, proc)
    result = kernel.run()
    assert result.status is RunStatus.TIMEOUT
    assert result.end_time <= 5.0


def test_deadlock_status_when_waiting_forever():
    kernel, _ = make_kernel(n=2)

    def waiter(ctx):
        yield from ctx.wait_until(lambda mailbox: list(mailbox) or None)
        return "woke"

    def silent(ctx):
        yield from ctx.local_step()
        return "done"

    kernel.add_process(0, waiter)
    kernel.add_process(1, silent)
    result = kernel.run()
    assert result.status is RunStatus.DEADLOCK
    assert 0 in result.non_terminated


def test_determinism_same_seed_same_execution():
    def build(seed):
        kernel, network = make_kernel(n=3, seed=seed)

        def proc(ctx):
            yield from ctx.broadcast(ctx.pid)
            msgs = yield from ctx.wait_until(lambda mb: mb if len(mb) >= 3 else None)
            return tuple(sorted(m.payload for m in msgs[:3]))

        for pid in range(3):
            kernel.add_process(pid, proc)
        result = kernel.run()
        return result.end_time, result.events_processed, result.decisions

    assert build(123) == build(123)
    assert build(123) != build(321) or build(123)[2] == build(321)[2]


def test_process_state_terminal_classification():
    assert ProcessState.CRASHED.is_terminal()
    assert ProcessState.DECIDED.is_terminal()
    assert ProcessState.HALTED.is_terminal()
    assert not ProcessState.READY.is_terminal()
    assert not ProcessState.BLOCKED.is_terminal()


def test_decision_of_correct_raises_on_disagreement():
    kernel, _ = make_kernel(n=2)

    def proc(ctx):
        yield from ctx.local_step()
        return ctx.pid  # different decisions on purpose

    kernel.add_process(0, proc)
    kernel.add_process(1, proc)
    result = kernel.run()
    with pytest.raises(ValueError):
        result.decision_of_correct()


def test_trace_records_when_enabled():
    kernel, _ = make_kernel(n=1, trace=True)

    def proc(ctx):
        ctx.log("starting")
        yield from ctx.local_step()
        return 1

    kernel.add_process(0, proc)
    kernel.run()
    assert len(kernel.trace) > 0
    assert any(entry.kind == "note" for entry in kernel.trace.entries)
