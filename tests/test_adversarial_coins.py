"""Safety of every consensus algorithm under adversarial coins.

Randomized consensus is proved correct against an adversary that cannot
predict coin flips -- but *safety* must hold for any coin behaviour
whatsoever.  These tests run every algorithm the harness knows against the
pathological coins -- stuck-at-0, stuck-at-1, and opposing coins engineered
to disagree across processes, all scripted with ``DeterministicCoin`` --
with round caps so liveness-hostile coins yield bounded non-termination
instead of hangs, and assert agreement and validity always hold.
"""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.coins.common import AdversarialCommonCoin, FixedSequenceCommonCoin
from repro.coins.local import DeterministicCoin
from repro.harness.config import ALGORITHMS, ExperimentConfig
from repro.harness.runner import run_consensus
from repro.sim.config import SimConfig

TOPOLOGY = ClusterTopology.even_split(6, 3)
CAPPED = SimConfig(max_rounds=15, max_time=5e4)
SEEDS = (0, 1, 2)

#: Algorithms drawing from per-process local coins vs a shared common coin.
LOCAL_COIN_ALGORITHMS = ("hybrid-local-coin", "ben-or", "mm-local-coin")
COMMON_COIN_ALGORITHMS = ("hybrid-common-coin", "mp-common-coin")

LOCAL_COIN_FACTORIES = {
    "always-zero": lambda pid: DeterministicCoin([0]),
    "always-one": lambda pid: DeterministicCoin([1]),
    # Even pids always flip 0, odd pids 1: the worst case for Ben-Or-style
    # convergence, which then rests on the majority-adoption path alone.
    "opposing": lambda pid: DeterministicCoin([pid % 2]),
}

COMMON_COINS = {
    "stuck-zero": lambda: FixedSequenceCommonCoin([0]),
    "stuck-one": lambda: FixedSequenceCommonCoin([1]),
    "forced-alternating": lambda: AdversarialCommonCoin(
        forced_bits={r: r % 2 for r in range(1, 16)}
    ),
}


def _config(algorithm, seed, proposals="split"):
    return ExperimentConfig(
        topology=TOPOLOGY, algorithm=algorithm, proposals=proposals, seed=seed, sim=CAPPED
    )


def test_every_algorithm_is_exercised():
    """The two coin-kind lists plus the coin-free baseline cover ALGORITHMS."""
    covered = set(LOCAL_COIN_ALGORITHMS) | set(COMMON_COIN_ALGORITHMS) | {"shared-memory"}
    assert covered == set(ALGORITHMS)


@pytest.mark.parametrize("coin_name", sorted(LOCAL_COIN_FACTORIES))
@pytest.mark.parametrize("algorithm", LOCAL_COIN_ALGORITHMS)
def test_local_coin_algorithms_stay_safe_under_adversarial_coins(algorithm, coin_name):
    factory = LOCAL_COIN_FACTORIES[coin_name]
    for seed in SEEDS:
        result = run_consensus(_config(algorithm, seed), local_coin_factory=factory)
        assert result.report.agreement, f"{algorithm}/{coin_name}/seed={seed}"
        assert result.report.validity, f"{algorithm}/{coin_name}/seed={seed}"


@pytest.mark.parametrize("coin_name", sorted(COMMON_COINS))
@pytest.mark.parametrize("algorithm", COMMON_COIN_ALGORITHMS)
def test_common_coin_algorithms_stay_safe_under_adversarial_coins(algorithm, coin_name):
    for seed in SEEDS:
        result = run_consensus(_config(algorithm, seed), common_coin=COMMON_COINS[coin_name]())
        assert result.report.agreement, f"{algorithm}/{coin_name}/seed={seed}"
        assert result.report.validity, f"{algorithm}/{coin_name}/seed={seed}"


def test_shared_memory_baseline_is_coin_free_and_safe():
    topology = ClusterTopology.single_cluster(5)
    for seed in SEEDS:
        result = run_consensus(
            ExperimentConfig(
                topology=topology, algorithm="shared-memory", proposals="split",
                seed=seed, sim=CAPPED,
            )
        )
        result.report.raise_on_violation()
        assert result.metrics.coin_flips == 0


@pytest.mark.parametrize("algorithm", LOCAL_COIN_ALGORITHMS)
def test_unanimous_proposals_decide_despite_stuck_opposite_coin(algorithm):
    """With unanimous input 1, a coin stuck at 0 cannot block or flip the decision."""
    result = run_consensus(
        _config(algorithm, seed=4, proposals="unanimous-1"),
        local_coin_factory=LOCAL_COIN_FACTORIES["always-zero"],
    )
    result.report.raise_on_violation()
    assert result.decided_value == 1


@pytest.mark.parametrize("algorithm", COMMON_COIN_ALGORITHMS)
def test_unanimous_proposals_decide_despite_stuck_opposite_common_coin(algorithm):
    result = run_consensus(
        _config(algorithm, seed=4, proposals="unanimous-1"),
        common_coin=COMMON_COINS["stuck-zero"](),
    )
    assert result.report.agreement and result.report.validity
    if result.decided_value is not None:
        assert result.decided_value == 1


def test_opposing_coins_can_stall_ben_or_but_never_split_it():
    """The engineered worst case: constant disagreement, bounded by the cap.

    Across several seeds some runs may still decide (via the majority path);
    whatever happens, no run may decide two values or an unproposed value.
    """
    stalled = 0
    for seed in range(6):
        result = run_consensus(
            _config("ben-or", seed), local_coin_factory=LOCAL_COIN_FACTORIES["opposing"]
        )
        assert result.report.agreement and result.report.validity
        if not result.terminated:
            stalled += 1
            assert len(result.sim_result.decided_values) <= 1
    # The adversarial coin must actually bite in at least one execution.
    assert stalled >= 1
