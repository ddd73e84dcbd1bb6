"""Tests of the worker-side aggregation pipeline (`repro.harness.aggregate`)."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.harness.aggregate import (
    SKETCH_CAPACITY,
    RunAggregate,
    StreamingStats,
    SummaryReducer,
    _seed_sequence_state,
    run_priority,
)
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.harness.stats import percentile, summarize


def _filled(values, capacity=SKETCH_CAPACITY, entropy=0, base_index=0):
    stats = StreamingStats(capacity=capacity)
    for offset, value in enumerate(values):
        stats.add(value, priority=run_priority(entropy, base_index + offset))
    return stats


# ------------------------------------------------------------------ priorities
def test_run_priority_is_deterministic_and_uniform_range():
    assert run_priority(0, 3) == run_priority(0, 3)
    priorities = [run_priority(0, index) for index in range(200)]
    assert all(0.0 <= priority < 1.0 for priority in priorities)
    assert len(set(priorities)) == 200  # no collisions across run indices
    assert run_priority(1, 3) != run_priority(0, 3)  # entropy matters


#: ``run_priority(entropy, index).hex()`` as the numpy-backed parent commit
#: printed it.  Needs no numpy: a host without it must derive the same bits.
PINNED_PRIORITIES = [
    (0, 0, "0x1.bfef6822f09bfp-1"),
    (0, 1, "0x1.41053d7a1dffcp-3"),
    (0, 47, "0x1.f79d921ea11d2p-2"),
    (0, 815, "0x1.99ba08f58313ep-2"),
    (0, 1 << 32, "0x1.aaebd3639d811p-1"),
    (0, (1 << 64) - 1, "0x1.1239c5d5012d8p-4"),
    (1, 0, "0x1.8757c981d40fap-2"),
    (12345, 7, "0x1.c559f23d6f43ap-1"),
    ((1 << 32) - 1, 3, "0x1.72b4d61a07338p-2"),
    (1 << 32, 3, "0x1.33e3cb384feabp-1"),
    ((1 << 64) + 5, 9, "0x1.06774336e2490p-2"),
    ((1 << 128) - 1, 2, "0x1.aed8e37ceee6ep-1"),
    (1 << 128, 2, "0x1.e4c2dee402b70p-3"),
    ((1 << 200) + 17, (1 << 40) + 1, "0x1.3222ff4760780p-3"),
]


@pytest.mark.parametrize("entropy, index, expected", PINNED_PRIORITIES)
def test_run_priority_known_answers(entropy, index, expected):
    assert run_priority(entropy, index).hex() == expected


def test_run_priority_rejects_negative_inputs_like_numpy():
    for entropy, index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            run_priority(entropy, index)


#: Word-boundary entropy sizes: empty, sub-word, one word and its neighbours,
#: a full four-word pool and the first size that spills past it.
ENTROPY_BITS = (0, 1, 31, 32, 33, 64, 96, 128, 129, 256)


@given(
    # Exactly ``bits`` long (top bit set), so every boundary size is drawn.
    entropy=st.sampled_from(ENTROPY_BITS).flatmap(
        lambda bits: st.integers(min_value=(1 << bits) >> 1, max_value=(1 << bits) - 1)
    ),
    index=st.integers(min_value=0, max_value=1 << 64)
    | st.sampled_from([(1 << 32) - 1, 1 << 32, (1 << 64) - 1, 1 << 64]),
)
@settings(max_examples=400, deadline=None)
def test_seed_sequence_port_equals_numpy(entropy, index):
    """The oracle: numpy's own ``SeedSequence``, where numpy is installed."""
    numpy_random = pytest.importorskip("numpy.random")
    state = numpy_random.SeedSequence(entropy, spawn_key=(index,)).generate_state(2)
    assert _seed_sequence_state(entropy, index) == (int(state[0]), int(state[1]))
    bits = (int(state[0]) << 32) | int(state[1])
    assert run_priority(entropy, index) == (bits >> 11) / float(1 << 53)


# ------------------------------------------------------------- streaming stats
def test_streaming_stats_matches_exact_summary():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8]
    stats = _filled(values)
    exact = summarize(values)
    assert stats.count == exact.count
    assert stats.mean == pytest.approx(exact.mean, rel=1e-12)
    assert stats.std == pytest.approx(exact.std, rel=1e-12)
    assert stats.minimum == exact.minimum and stats.maximum == exact.maximum
    view = stats.to_summary_stats()
    assert view.median == exact.median  # below capacity: sketch is the sample
    assert view.p90 == exact.p90
    assert view.ci95_half_width == pytest.approx(exact.ci95_half_width, rel=1e-12)


def test_streaming_stats_empty_and_singleton_edges():
    empty = StreamingStats()
    assert empty.count == 0 and empty.std == 0.0 and empty.variance == 0.0
    with pytest.raises(ValueError):
        empty.percentile(50.0)
    with pytest.raises(ValueError):
        empty.to_summary_stats()

    single = _filled([7.5])
    assert single.count == 1
    assert single.mean == 7.5 and single.std == 0.0
    assert single.minimum == single.maximum == 7.5
    assert single.percentile(0.0) == single.percentile(100.0) == 7.5
    assert single.to_summary_stats().ci95_half_width == 0.0


def test_streaming_stats_rejects_bad_capacity():
    with pytest.raises(ValueError):
        StreamingStats(capacity=0)


# ------------------------------------------------------------ percentile sketch
def test_sketch_percentiles_within_rank_error_bound_on_10k_samples():
    rng = random.Random(0)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(10_000)]
    stats = _filled(values)
    assert not stats.exact
    assert len(stats.sample) == SKETCH_CAPACITY
    # A uniform subsample of size k has rank error ~1/sqrt(k); with k=512
    # allow +-7.5 percentile ranks (>4 sigma, and deterministic anyway since
    # priorities are fixed by run index).
    for q in (10.0, 50.0, 90.0, 99.0):
        estimate = stats.percentile(q)
        low = percentile(values, max(q - 7.5, 0.0))
        high = percentile(values, min(q + 7.5, 100.0))
        assert low <= estimate <= high, f"q={q}: {estimate} outside [{low}, {high}]"
    # moments stay exact regardless of sketching
    exact = summarize(values)
    assert stats.mean == pytest.approx(exact.mean, rel=1e-9)
    assert stats.std == pytest.approx(exact.std, rel=1e-9)
    assert stats.minimum == exact.minimum and stats.maximum == exact.maximum


def test_sketch_is_exact_up_to_capacity():
    values = list(range(32))
    stats = _filled(values, capacity=32)
    assert stats.exact
    for q in (0.0, 25.0, 50.0, 75.0, 100.0):
        assert stats.percentile(q) == percentile(values, q)
    stats.add(99.0, priority=run_priority(0, 32))
    assert not stats.exact
    assert len(stats.sample) == 32


# --------------------------------------------------------------- run aggregate
def _run_summaries(seeds, algorithm="hybrid-local-coin"):
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(4, 2), algorithm=algorithm, proposals="split"
    )
    reducer = SummaryReducer()
    summaries = []
    for index, seed in enumerate(seeds):
        summaries.append(reducer(run_consensus(config.with_seed(seed)), index))
    return summaries


def test_run_summary_contents_and_compactness():
    summaries = _run_summaries([3])
    (summary,) = summaries
    assert summary.seed == 3 and summary.index == 0
    assert summary.algorithm == "hybrid-local-coin"
    assert summary.terminated and summary.safety_ok and summary.decided
    assert summary.decided_value in (0, 1)
    assert summary.values["messages_sent"] > 0
    assert "consensus_objects_per_phase" in summary.values  # derived ratios ride along
    assert "wall_time_seconds" not in summary.values  # nondeterministic: excluded
    config = ExperimentConfig(
        topology=ClusterTopology.even_split(4, 2), algorithm="hybrid-local-coin", proposals="split"
    )
    full = run_consensus(config.with_seed(3))
    assert len(pickle.dumps(summary)) < len(pickle.dumps(full)) / 4


def test_run_aggregate_edges_and_errors():
    empty = RunAggregate()
    assert len(empty) == 0
    assert empty.termination_rate() == 0.0
    assert empty.safety_rate() == 0.0 and empty.decided_rate() == 0.0
    assert empty.metric_names() == []
    with pytest.raises(KeyError, match="no aggregated metric"):
        empty.mean("messages_sent")

    (summary,) = _run_summaries([0])
    singleton = RunAggregate.from_summaries([summary])
    assert len(singleton) == 1
    assert singleton.std("messages_sent") == 0.0
    assert singleton.summary("messages_sent").ci95_half_width == 0.0


def test_summary_reducer_is_picklable():
    reducer = SummaryReducer(entropy=42)
    clone = pickle.loads(pickle.dumps(reducer))
    assert clone == reducer
    assert math.isclose(run_priority(42, 7), run_priority(42, 7))
