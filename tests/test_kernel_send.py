"""The kernel's inline send is ``Network.transmit``, draw for draw.

``SimulationKernel.run_batch`` accounts every send itself -- bounds check,
the counter bump that is the ``msg_id``, the byte charge, one pop from the
network's delay cache -- instead of calling :meth:`Network.transmit`.  These
properties hold the two together: a kernel run over random mixes of
``SendEffect`` and ``BroadcastEffect`` (self-sends and repeated destinations
included), with ``Network.sample_delay`` called from inside process steps the
way the adversary's reorder path does, must leave the same ids, delays,
counters and delay-refill schedule as replaying its sends through
``transmit`` on a fresh network in ``msg_id`` order.  An out-of-range
destination must fail the same way at the same send.

Delays are at least 1.0 (0.1 for a self-send) and a process step costs
about 1e-4, so every program here ends before its first delivery: each send
is still an in-flight entry when the run returns, unpacked back to its due
``time`` and decoded to the ``Message`` it would be delivered as, and
``time`` is exactly ``send_time + delay``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.delays import DelayModel, UniformDelay
from repro.network.transport import Network
from repro.sim.context import BroadcastEffect
from repro.sim.kernel import _IN_FLIGHT, SimulationKernel, _in_flight_message
from repro.sim.rng import RandomSource

#: Shared payload objects (the size memo sees each many times) and one shape
#: built fresh per send (the memo sees each once).
PAYLOADS = (None, 0, 300, "text", (1, 2, 3), {"k": 1.5}, ["x", ("y",)])
FRESH = len(PAYLOADS)

#: The transport's refill sizes: ``sum(REFILLS[:-1])`` draws reach the cap.
REFILLS = [16, 32, 64, 128, 256, 512]


class _RecordingDelay(DelayModel):
    """Uniform delays in ``[1, 2)`` that log every refill size asked of them."""

    def __init__(self):
        self.refills = []
        self._inner = UniformDelay(low=1.0, high=2.0)

    def sample(self, rng):
        return self._inner.sample(rng)

    def sample_batch(self, rng, k):
        self.refills.append(k)
        return self._inner.sample_batch(rng, k)


def _payload(index, pid, position):
    return (pid, position, "fresh") if index == FRESH else PAYLOADS[index]


def _behaviour(ops, network, samples):
    """A process that runs ``ops``; ``samples`` logs its mid-step delay draws."""

    def run(ctx):
        for position, op in enumerate(ops):
            if op[0] == "send":
                yield from ctx.send(op[1], _payload(op[2], ctx.pid, position))
            elif op[0] == "broadcast":
                yield BroadcastEffect(op[1], _payload(op[2], ctx.pid, position))
            else:
                _, dest, count = op
                for _ in range(count):
                    before = network.stats.messages_sent
                    samples.append((before, ctx.pid, dest, network.sample_delay(ctx.pid, dest)))
        return "done"

    return run


def _run(programs, seed):
    """Run one kernel over ``programs``; returns what the replay needs."""
    n = len(programs)
    model = _RecordingDelay()
    network = Network(n, delay_model=model, rng=RandomSource(seed))
    kernel = SimulationKernel(seed=seed)
    kernel.attach_network(network)
    samples = []
    for pid, ops in enumerate(programs):
        kernel.add_process(pid, _behaviour(ops, network, samples))
    error = None
    try:
        kernel.run()
    except ValueError as raised:
        error = raised
    assert network.stats.messages_delivered == 0, "a delivery would hide its delay"
    sends = sorted(
        (
            (_IN_FLIGHT.unpack(entry)[0], _in_flight_message(entry, kernel._origins))
            for entry in kernel._inflight
        ),
        key=lambda sent: sent[1].msg_id,
    )
    return kernel, network, model, sends, samples, error


def _replay(n, seed, sends, samples):
    """Feed the kernel's sends and draws, in order, through a fresh network."""
    model = _RecordingDelay()
    reference = Network(n, delay_model=model, rng=RandomSource(seed))
    pending = list(samples)

    def draw_samples_up_to(count):
        while pending and pending[0][0] == count:
            _, sender, dest, delay = pending.pop(0)
            assert reference.sample_delay(sender, dest) == delay

    for count, (time, (sender, dest, payload, send_time, msg_id)) in enumerate(sends):
        draw_samples_up_to(count)
        ref_id, delay = reference.transmit(sender, dest, payload)
        assert msg_id == ref_id == count + 1
        assert send_time + delay == time, f"send {msg_id} drew another delay"
    draw_samples_up_to(len(sends))
    assert not pending
    return reference, model


def _send_count(op):
    return len(op[1]) if op[0] == "broadcast" else int(op[0] == "send")


def _ops(n):
    dest = st.integers(0, n - 1)
    payload = st.integers(0, FRESH)
    return st.one_of(
        st.tuples(st.just("send"), dest, payload),
        st.tuples(st.just("broadcast"), st.lists(dest, min_size=1, max_size=40).map(tuple), payload),
        st.tuples(st.just("sample"), dest, st.integers(0, 300)),
    )


_programs = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(_ops(n), max_size=8), min_size=n, max_size=n)
)


# Crosses every refill boundary, 16 through the 512 cap, with draws taken
# mid-step by ``sample_delay`` on both sides of several of them.
_LONG = [
    [
        ("broadcast", (0, 1, 2, 3) * 10, 4),
        ("sample", 0, 200),
        ("send", 0, FRESH),
        ("broadcast", (3, 2, 1), FRESH),
    ],
    [("sample", 2, 40), ("broadcast", (1,) * 30, 5), ("send", 3, 1), ("sample", 1, 250)],
    [("send", 2, 2), ("broadcast", tuple(range(4)) * 9, 6), ("sample", 3, 300)],
    [("broadcast", (2, 0) * 20, 3), ("sample", 3, 17), ("broadcast", (3,) * 25, 0)],
]


@settings(max_examples=60, deadline=None)
@example(programs=_LONG, seed=3)
@given(programs=_programs, seed=st.integers(0, 2**16))
def test_kernel_send_equals_transmit(programs, seed):
    kernel, network, model, sends, samples, error = _run(programs, seed)
    assert error is None
    reference, reference_model = _replay(len(programs), seed, sends, samples)
    assert network.stats == reference.stats
    assert model.refills == reference_model.refills
    refills = len(model.refills)
    assert model.refills == REFILLS[:refills] + [REFILLS[-1]] * (refills - len(REFILLS))
    for pid in range(len(programs)):
        sent = sum(1 for _, message in sends if message.sender == pid)
        assert kernel.process(pid).stats.messages_sent == sent


def test_the_long_example_reaches_the_refill_cap():
    _, _, model, sends, samples, _ = _run(_LONG, seed=3)
    assert model.refills[: len(REFILLS)] == REFILLS
    assert len(sends) + len(samples) > sum(REFILLS[:-1])


@settings(max_examples=40, deadline=None)
@given(
    programs=_programs,
    seed=st.integers(0, 2**16),
    sender=st.integers(0, 5),
    position=st.integers(0, 8),
    lead=st.lists(st.integers(0, 5), max_size=4),
    too_high=st.booleans(),
    as_broadcast=st.booleans(),
)
def test_out_of_range_destination_fails_like_transmit(
    programs, seed, sender, position, lead, too_high, as_broadcast
):
    """The same ``ValueError``, at the same send, with the same counters and draws."""
    n = len(programs)
    bad_dest = n if too_high else -1
    sender %= n
    ops = list(programs[sender])
    position = min(position, len(ops))
    lead = [dest % n for dest in lead] if as_broadcast else []
    if as_broadcast:
        ops.insert(position, ("broadcast", (*lead, bad_dest, 0), 1))
    else:
        ops.insert(position, ("send", bad_dest, 1))
    programs = [ops if pid == sender else program for pid, program in enumerate(programs)]

    kernel, network, model, sends, samples, error = _run(programs, seed)
    assert error is not None
    reference, reference_model = _replay(n, seed, sends, samples)
    with pytest.raises(ValueError) as expected:
        reference.transmit(sender, bad_dest, "payload")
    assert str(error) == str(expected.value)
    assert network.stats == reference.stats
    assert model.refills == reference_model.refills
    # The failing send is the bad op's: every send of the process before it
    # went out, and nothing after it did.
    before = sum(_send_count(op) for op in ops[:position]) + len(lead)
    assert sum(1 for _, message in sends if message.sender == sender) == before
