"""Unit tests for local coins, common coins and their scripted variants."""

import random

import pytest

from repro.coins.common import AdversarialCommonCoin, CommonCoin, FixedSequenceCommonCoin
from repro.coins.local import BiasedLocalCoin, DeterministicCoin, LocalCoin


# ------------------------------------------------------------------ local coins
def test_local_coin_returns_bits_and_counts():
    coin = LocalCoin(random.Random(0))
    bits = [coin.flip() for _ in range(100)]
    assert set(bits) <= {0, 1}
    assert coin.flips == 100
    assert coin.history == bits


def test_local_coin_roughly_fair():
    coin = LocalCoin(random.Random(42))
    ones = sum(coin.flip() for _ in range(2000))
    assert 800 < ones < 1200


def test_local_coins_with_same_stream_state_are_reproducible():
    a = LocalCoin(random.Random(7))
    b = LocalCoin(random.Random(7))
    assert [a.flip() for _ in range(20)] == [b.flip() for _ in range(20)]


def test_biased_coin_bias_bounds_and_behaviour():
    with pytest.raises(ValueError):
        BiasedLocalCoin(random.Random(0), bias=1.5)
    heavy = BiasedLocalCoin(random.Random(0), bias=0.95)
    ones = sum(heavy.flip() for _ in range(500))
    assert ones > 400
    zero = BiasedLocalCoin(random.Random(0), bias=0.0)
    assert all(zero.flip() == 0 for _ in range(20))


def test_deterministic_coin_replays_sequence():
    coin = DeterministicCoin([1, 0, 0])
    assert [coin.flip() for _ in range(6)] == [1, 0, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        DeterministicCoin([])
    with pytest.raises(ValueError):
        DeterministicCoin([0, 2])


# ----------------------------------------------------------------- common coins
def test_common_coin_same_bit_for_all_processes():
    coin = CommonCoin(seed=5)
    for round_number in range(1, 20):
        bits = {coin.bit(round_number, pid=pid) for pid in range(5)}
        assert len(bits) == 1


def test_common_coin_rounds_start_at_one():
    coin = CommonCoin()
    with pytest.raises(ValueError):
        coin.bit(0)


def test_common_coin_is_seed_deterministic_and_order_insensitive():
    a = CommonCoin(seed=9)
    b = CommonCoin(seed=9)
    assert a.bit(5) == b.bit(5)  # asking for round 5 first still agrees
    assert a.prefix(10) == b.prefix(10)
    assert CommonCoin(seed=10).prefix(32) != a.prefix(32)


def test_common_coin_counts_invocations_per_process():
    coin = CommonCoin()
    coin.bit(1, pid=3)
    coin.bit(1, pid=3)
    coin.bit(2, pid=4)
    assert coin.invocations == 3
    assert coin.invocations_by_process[3] == 2
    assert coin.invocations_by_process[4] == 1


def test_common_coin_roughly_fair():
    coin = CommonCoin(seed=123)
    ones = sum(coin.prefix(2000))
    assert 800 < ones < 1200


def test_fixed_sequence_common_coin():
    coin = FixedSequenceCommonCoin([1, 1, 0])
    assert [coin.bit(r) for r in range(1, 7)] == [1, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        FixedSequenceCommonCoin([])


# ------------------------------------------------------------ adversarial coins
def test_always_coins():
    """A coin stuck at one bit is a one-bit ``DeterministicCoin``, accounting and all."""
    for bit in (0, 1):
        coin = DeterministicCoin([bit])
        assert [coin.flip() for _ in range(5)] == [bit] * 5
        assert coin.flips == 5 and coin.history == [bit] * 5


def test_opposing_coins_assign_by_parity():
    coins = [DeterministicCoin([pid % 2]) for pid in range(4)]
    assert [[coin.flip() for _ in range(3)] for coin in coins] == [[0] * 3, [1] * 3] * 2


def test_adversarial_common_coin_forced_bits():
    coin = AdversarialCommonCoin(forced_bits={1: 0, 3: 1})
    assert coin.bit(1) == 0
    assert coin.bit(3) == 1
    # Every process still sees the same bit (the coin stays common).
    assert coin.bit(2, pid=0) == coin.bit(2, pid=1)


def test_adversarial_common_coin_force_validation():
    coin = AdversarialCommonCoin()
    coin.bit(2)
    with pytest.raises(ValueError):
        coin.force(1, 1)  # already drawn
    with pytest.raises(ValueError):
        coin.force(5, 7)  # not a bit
    coin.force(5, 1)
    assert coin.bit(5) == 1
    with pytest.raises(ValueError):
        AdversarialCommonCoin(forced_bits={0: 1})
