"""Unit tests for messages, delay models and the network transport."""

import random

import pytest

from repro.network.delays import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    SpikeDelay,
    UniformDelay,
)
from repro.network.message import Message, payload_size
from repro.network.transport import Network
from repro.sim.rng import RandomSource


# --------------------------------------------------------------------- message
def test_message_is_frozen_and_reprs():
    msg = Message(sender=1, dest=2, payload="x", send_time=0.5, msg_id=7)
    with pytest.raises(AttributeError):
        msg.payload = "y"
    assert "1->2" in repr(msg)


def test_payload_size_monotone_in_content():
    assert payload_size(None) == 1
    assert payload_size(7) >= 1
    assert payload_size("hello") == 5
    assert payload_size((1, 2, 3)) > payload_size((1,))
    assert payload_size({"a": 1}) > 0
    assert payload_size(3.14) == 8
    assert payload_size(object()) == 16


def test_payload_size_handles_dataclasses():
    from repro.core.base import PhaseMessage

    assert payload_size(PhaseMessage(tag="t", round_number=1, phase=1, est=0)) > 3


def reference_payload_size(payload):
    """The recursive ``isinstance`` walk ``payload_size`` replaced: the reference."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 2 + sum(reference_payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return 2 + sum(
            reference_payload_size(key) + reference_payload_size(value)
            for key, value in payload.items()
        )
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is not None:
        return 2 + sum(reference_payload_size(getattr(payload, name)) for name in fields)
    return 16


def _sized_payloads():
    """Every kind of payload the algorithms and the adversary put on the wire."""
    import dataclasses
    import enum

    from repro.adversary.faults import TamperedPayload, mutate_payload
    from repro.core.base import BOT, DecideMessage, PhaseMessage

    @dataclasses.dataclass(frozen=True)
    class Annotated(PhaseMessage):
        note: str = "é"

    class Undecorated(DecideMessage):
        pass

    class Bit(enum.IntEnum):
        ONE = 1

    votes = [PhaseMessage(tag="hybrid-local-coin", round_number=r, phase=2, est=est)
             for r in (1, 300, 70_000) for est in (0, 1, BOT)]
    decide = DecideMessage(tag="mp-common-coin", value=1)
    return votes + [
        decide,
        PhaseMessage(tag="t", round_number=True, phase=1, est=Bit.ONE),
        TamperedPayload(original=votes[0], mutated=mutate_payload(votes[0])),
        TamperedPayload(original=decide, mutated=mutate_payload(decide)),
        mutate_payload(votes[1]),
        mutate_payload(votes[2]),
        mutate_payload(decide),
        True, 2.5, None, 0, -(2**70), "ascii", "⊥⊥", BOT, object(),
        (votes[0], [decide, {BOT}], {"k": (1.0, None)}),
        frozenset({1, 2}),
        Annotated(tag="t", round_number=2, phase=1, est=BOT),
        Undecorated(tag="t", value=0),
    ]


def test_payload_size_equals_the_recursive_reference():
    # Twice: a dataclass type's first instance is sized by the general rules
    # and records its fields, later ones take the exact-type path.
    for _ in range(2):
        for payload in _sized_payloads():
            assert payload_size(payload) == reference_payload_size(payload), payload


# ---------------------------------------------------------------------- delays
@pytest.mark.parametrize(
    "model",
    [
        ConstantDelay(1.0),
        UniformDelay(0.5, 1.5),
        ExponentialDelay(1.0),
        LogNormalDelay(1.0, 0.5),
        SpikeDelay(),
    ],
)
def test_delay_models_positive_and_finite(model):
    rng = random.Random(0)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(s > 0 for s in samples)
    assert all(s < 1e6 for s in samples)


def test_constant_delay_is_constant():
    rng = random.Random(1)
    model = ConstantDelay(2.5)
    assert {model.sample(rng) for _ in range(10)} == {2.5}


def test_uniform_delay_respects_bounds():
    rng = random.Random(2)
    model = UniformDelay(1.0, 3.0)
    assert all(1.0 <= model.sample(rng) <= 3.0 for _ in range(500))


def test_spike_delay_produces_occasional_spikes():
    rng = random.Random(3)
    model = SpikeDelay(low=0.5, high=1.0, spike_probability=0.5, spike_low=10.0, spike_high=11.0)
    samples = [model.sample(rng) for _ in range(300)]
    assert any(s >= 10.0 for s in samples)
    assert any(s <= 1.0 for s in samples)


def test_delay_model_validation():
    with pytest.raises(ValueError):
        ConstantDelay(0.0)
    with pytest.raises(ValueError):
        UniformDelay(2.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialDelay(-1.0)
    with pytest.raises(ValueError):
        LogNormalDelay(0.0, 1.0)
    with pytest.raises(ValueError):
        SpikeDelay(spike_probability=2.0)


# --------------------------------------------------------------------- network
def test_network_rejects_bad_sizes_and_pids():
    with pytest.raises(ValueError):
        Network(0)
    net = Network(3, rng=RandomSource(0))
    with pytest.raises(ValueError):
        net.prepare(sender=0, dest=5, payload="x", time=0.0)
    with pytest.raises(ValueError):
        net.prepare(sender=-1, dest=0, payload="x", time=0.0)


def test_network_counts_traffic_and_assigns_ids():
    net = Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(0))
    first = net.prepare(sender=0, dest=1, payload="abc", time=0.0)
    second = net.prepare(sender=1, dest=0, payload="d", time=1.0)
    assert first.msg_id != second.msg_id
    # The counter is the id: ids run 1, 2, ... in send order.
    assert (first.msg_id, second.msg_id) == (1, 2)
    assert net.stats.messages_sent == 2
    assert net.stats.bytes_sent == 4
    net.record_delivery(first)
    assert net.stats.messages_delivered == 1
    assert net.stats.as_dict()["messages_sent"] == 2


def test_self_messages_are_faster():
    net = Network(2, delay_model=ConstantDelay(1.0), rng=RandomSource(0), self_delay_factor=0.1)
    assert net.sample_delay(0, 0) == pytest.approx(0.1)
    assert net.sample_delay(0, 1) == pytest.approx(1.0)


def test_network_delay_sequence_is_seed_deterministic():
    a = Network(2, delay_model=UniformDelay(), rng=RandomSource(7))
    b = Network(2, delay_model=UniformDelay(), rng=RandomSource(7))
    assert [a.sample_delay(0, 1) for _ in range(10)] == [b.sample_delay(0, 1) for _ in range(10)]
