"""Unit tests for failure patterns and adversarial crash scenarios."""

import math
import random

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology


def test_none_pattern_has_no_crashes():
    pattern = FailurePattern.none()
    assert pattern.crash_count() == 0
    assert pattern.correct(5) == {0, 1, 2, 3, 4}
    assert not pattern.crashes_majority(5)
    assert repr(pattern) == "FailurePattern(none)"


def test_negative_crash_time_rejected():
    with pytest.raises(ValueError):
        FailurePattern({0: -1.0})


@pytest.mark.parametrize("time", [math.nan, -math.nan, -1e-9, -math.inf])
def test_a_nan_or_negative_crash_time_is_refused_naming_the_pid_and_value(time):
    with pytest.raises(ValueError, match=rf"process 3 must be >= 0 and not NaN, got {time!r}"):
        FailurePattern({0: 1.0, 3: time})


@pytest.mark.parametrize("time", [0.0, 2.5, math.inf])
def test_finite_and_infinite_crash_times_stay_legal(time):
    assert FailurePattern({3: time}).crashes == {3: time}


def test_crash_set_and_correct():
    pattern = FailurePattern.crash_set([1, 3], time=2.5)
    assert pattern.crashed == {1, 3}
    assert pattern.correct(5) == {0, 2, 4}
    assert pattern.crashes[1] == 2.5


def test_crashes_majority():
    assert FailurePattern.crash_set(range(4)).crashes_majority(7)
    assert not FailurePattern.crash_set(range(3)).crashes_majority(7)


def test_crash_all_but_one_in_cluster_default_and_explicit_survivor():
    topo = ClusterTopology([[0, 1, 2], [3, 4]])
    pattern = FailurePattern.crash_all_but_one_in_cluster(topo, 0)
    assert pattern.crashed == {1, 2}
    pattern2 = FailurePattern.crash_all_but_one_in_cluster(topo, 0, survivor=2)
    assert pattern2.crashed == {0, 1}
    with pytest.raises(ValueError):
        FailurePattern.crash_all_but_one_in_cluster(topo, 0, survivor=4)


def test_majority_crash_with_surviving_majority_cluster():
    topo = ClusterTopology.figure1_right()
    pattern = FailurePattern.majority_crash_with_surviving_majority_cluster(topo, survivor=3)
    assert pattern.crashed == {0, 1, 2, 4, 5, 6}
    assert pattern.crashes_majority(topo.n)
    assert pattern.allows_termination(topo)
    with pytest.raises(ValueError):
        FailurePattern.majority_crash_with_surviving_majority_cluster(topo, survivor=6)


def test_majority_crash_requires_majority_cluster():
    topo = ClusterTopology.figure1_left()
    with pytest.raises(ValueError):
        FailurePattern.majority_crash_with_surviving_majority_cluster(topo)


def test_violate_termination_condition():
    topo = ClusterTopology.even_split(8, 4)
    pattern = FailurePattern.violate_termination_condition(topo)
    assert not pattern.allows_termination(topo)
    # A single-cluster topology can never have its condition violated short of
    # crashing everybody.
    single = ClusterTopology.single_cluster(4)
    total = FailurePattern.violate_termination_condition(single)
    assert total.crashed == {0, 1, 2, 3}


def test_allows_termination_matches_topology_condition():
    topo = ClusterTopology.figure1_right()
    ok = FailurePattern.crash_set({0, 5, 6, 1, 2, 3})  # p4 (pid 4) survives in majority cluster
    assert ok.allows_termination(topo)
    bad = FailurePattern.crash_set({1, 2, 3, 4})  # whole majority cluster gone
    assert not bad.allows_termination(topo)


def test_random_crashes_bounds_and_determinism():
    rng = random.Random(5)
    pattern = FailurePattern.random_crashes(rng, n=10, count=4, earliest=1.0, latest=2.0)
    assert pattern.crash_count() == 4
    assert all(1.0 <= time <= 2.0 for time in pattern.crashes.values())
    again = FailurePattern.random_crashes(random.Random(5), n=10, count=4, earliest=1.0, latest=2.0)
    assert pattern.crashes == again.crashes
    with pytest.raises(ValueError):
        FailurePattern.random_crashes(rng, n=3, count=5)


def test_merged_with_keeps_earliest_time():
    a = FailurePattern({0: 5.0, 1: 1.0})
    b = FailurePattern({0: 2.0, 2: 3.0})
    merged = a.merged_with(b)
    assert merged.crashes == {0: 2.0, 1: 1.0, 2: 3.0}


def test_install_schedules_crashes_into_kernel():
    from repro.network.delays import ConstantDelay
    from repro.network.transport import Network
    from repro.sim.kernel import SimulationKernel
    from repro.sim.rng import RandomSource

    kernel = SimulationKernel(seed=0)
    kernel.attach_network(Network(2, ConstantDelay(1.0), RandomSource(0)))

    def forever(ctx):
        while True:
            yield from ctx.local_step(1.0)

    def quick(ctx):
        yield from ctx.local_step()
        return "ok"

    kernel.add_process(0, forever)
    kernel.add_process(1, quick)
    FailurePattern({0: 2.0}).install(kernel)
    result = kernel.run()
    assert 0 in result.crashed and 1 in result.correct


def test_install_rejects_pid_out_of_range_with_clear_error():
    from repro.sim.kernel import SimulationKernel

    kernel = SimulationKernel(seed=0)
    kernel.add_process(0, lambda ctx: iter(()))
    kernel.add_process(1, lambda ctx: iter(()))
    with pytest.raises(ValueError, match=r"crashes process ids \[2, 5\].*has processes \[0, 1\]"):
        FailurePattern({2: 1.0, 5: 0.5, 0: 1.0}).install(kernel)


def test_repr_lists_crashes():
    text = repr(FailurePattern({2: 1.0, 0: 3.0}))
    assert "0@3" in text and "2@1" in text
