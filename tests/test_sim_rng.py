"""Unit tests for the deterministic random-source machinery."""

import random

import pytest

from repro.sim.rng import RandomSource


def test_seed_must_be_int():
    with pytest.raises(TypeError):
        RandomSource("not-a-seed")


def test_same_seed_same_streams():
    a = RandomSource(42).stream("x")
    b = RandomSource(42).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RandomSource(1).stream("x")
    b = RandomSource(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_names_differ():
    source = RandomSource(7)
    a = source.stream("alpha")
    b = source.stream("beta")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached_and_stateful():
    source = RandomSource(3)
    first = source.stream("s")
    value = first.random()
    second = source.stream("s")
    assert first is second
    assert second.random() != value or True  # state advanced; object identity is the real check


def test_stream_name_parts_are_stringified():
    source = RandomSource(5)
    assert source.stream(1, "a") is source.stream("1", "a")


def test_order_of_stream_creation_does_not_matter():
    source_a = RandomSource(11)
    source_b = RandomSource(11)
    a_first = source_a.stream("first").random()
    source_b.stream("second")  # created in a different order
    b_first = source_b.stream("first").random()
    assert a_first == b_first


def test_spawn_creates_independent_namespace():
    parent = RandomSource(13)
    child = parent.spawn("workload")
    assert isinstance(child, RandomSource)
    assert child.seed != parent.seed
    # Deterministic: same spawn name gives the same child seed.
    assert parent.spawn("workload").seed == child.seed
    assert parent.spawn("other").seed != child.seed


def test_lazy_stream_is_derived_on_its_first_draw():
    source = RandomSource(17)
    lazy = source.lazy_stream("local-coin", 3)
    source.stream("kernel", "jitter")
    assert source.derived == (("kernel", "jitter"),)
    draws = [lazy.randrange(2) for _ in range(8)] + [lazy.random()]
    assert source.derived == (("kernel", "jitter"), ("local-coin", "3"))
    eager = RandomSource(17).stream("local-coin", 3)
    assert draws == [eager.randrange(2) for _ in range(8)] + [eager.random()]
    # The derived stream is the source's own: both views share its state.
    assert source.stream("local-coin", "3").getstate() == lazy.getstate()
    with pytest.raises(AttributeError):
        lazy._private


def test_streams_return_standard_random_objects():
    assert isinstance(RandomSource(0).stream("x"), random.Random)


def test_seed_property_round_trips():
    assert RandomSource(99).seed == 99
