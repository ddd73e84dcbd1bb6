"""Worker-side aggregation: streaming summaries of repeated runs.

The parallel engine used to ship one pickled :class:`~.runner.RunResult` per
run back to the parent process -- memories, traces and per-process metrics
included -- so IPC volume grew linearly with both the system size ``n`` and
the repetition count, and dominated large sweeps.  This module provides the
compact alternative: a :class:`Reducer` turns each ``RunResult`` into a tiny
:class:`RunSummary` *inside the worker*, and the parent folds those summaries,
in run-index order, into :class:`RunAggregate` / :class:`StreamingStats`
accumulators.  Each run then costs O(1) bytes over the pipe instead of O(run
size).

Determinism
-----------
Folding order is always run-index order, and the percentile sketch is a
*bottom-k* sample keyed by per-run priorities derived from the run index:
the first two state words of ``numpy.random.SeedSequence(entropy,
spawn_key=(index,))``, computed here in pure Python (:func:`run_priority`),
so no host needs numpy and every host derives the same value.  Priorities
depend only on the run index, never on which worker executed the run or how
the batch was chunked, so serial, parallel and chunked executions produce
bit-identical aggregates.

Accuracy
--------
Moments (count / mean / M2 / min / max) are exact.  The percentile sketch
stores the whole sample up to ``capacity`` values (exact percentiles), and
degrades to a uniform random subsample of size ``capacity`` beyond that,
giving a rank error of roughly ``1/sqrt(capacity)``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Protocol, Tuple

from .stats import SummaryStats, ci95_half_width, percentile

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .runner import RunResult

#: Default size of the percentile sketch.  Below this many runs the sketch
#: stores everything and percentiles are exact; typical sweeps (tens to a few
#: hundred repetitions) therefore lose nothing to sketching.
SKETCH_CAPACITY = 512


# --------------------------------------------------------------- RNG streams
_MASK32 = 0xFFFFFFFF
#: Words in ``SeedSequence``'s entropy pool (numpy's ``DEFAULT_POOL_SIZE``).
_POOL_WORDS = 4


def priority_backend() -> str:
    """The name of the :func:`run_priority` derivation, as artifacts record it.

    Sharded-sweep manifests, plan headers and ``SweepPlan.fingerprint()``
    carry this name.  There is one derivation; the name is kept because
    directories written by builds that fell back to a ``"sha256"``
    derivation on numpy-free hosts hold different priorities, and are
    refused by this name.
    """
    return "numpy-seedsequence"


def _uint32_words(value: int) -> List[int]:
    """``value`` as little-endian 32-bit words (``[0]`` for zero)."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_sequence_state(entropy: int, index: int) -> Tuple[int, int]:
    """``SeedSequence(entropy, spawn_key=(index,)).generate_state(2)``, ported.

    numpy's ``mix_entropy`` then ``generate_state`` on Python integers, every
    product and difference reduced ``& 0xFFFFFFFF`` where C wraps a
    ``uint32_t``.  ``tests/test_aggregate.py`` holds it equal to numpy.
    """
    # A spawn key follows, so the entropy words are zero-padded to the pool.
    words = _uint32_words(entropy)
    words += [0] * (_POOL_WORDS - len(words))
    words += _uint32_words(index)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words[:_POOL_WORDS]]
    # Mix all bits together so late words can affect earlier ones.
    for source in range(_POOL_WORDS):
        for target in range(_POOL_WORDS):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in words[_POOL_WORDS:]:
        for target in range(_POOL_WORDS):
            pool[target] = mix(pool[target], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for value in pool[:2]:
        value ^= hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state[0], state[1]


def run_priority(entropy: int, index: int) -> float:
    """Deterministic uniform priority in [0, 1) for run ``index``.

    Implements the per-run RNG-stream split from ROADMAP: each run owns an
    independent stream derived by spawning the master ``entropy`` keyed by
    the *run index* (``SeedSequence(entropy, spawn_key=(index,))``), so the
    value is identical no matter which worker executes the run, how the
    batch is chunked, or in which order runs complete -- and, being computed
    without numpy, no matter what the host has installed.
    """
    high, low = _seed_sequence_state(entropy, index)
    return (((high << 32) | low) >> 11) / float(1 << 53)


# ------------------------------------------------------------ streaming stats
@dataclass
class StreamingStats:
    """Running statistics of one numeric quantity.

    Maintains exact count/mean/M2/min/max (Welford updates) plus a
    bottom-``capacity`` priority sample for percentile estimation.  There
    is deliberately no pairwise merge: a merge of floating-point moments
    differs from a sequential fold in the last bits, so combining runs from
    several workers or shards means folding their summaries in run-index
    order (:meth:`RunAggregate.from_summaries`).
    """

    capacity: int = SKETCH_CAPACITY
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: ``(priority, value)`` pairs, sorted by priority, at most ``capacity``.
    sample: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"sketch capacity must be >= 1, got {self.capacity}")

    # ------------------------------------------------------------- ingestion
    def add(self, value: float, priority: Optional[float] = None) -> None:
        """Fold one observation in.

        ``priority`` keys the percentile sketch; the harness passes
        :func:`run_priority` of the run index.  When omitted, a priority is
        derived from the accumulator's own observation count.
        """
        value = float(value)
        if priority is None:
            priority = run_priority(0, self.count)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._sketch_insert(priority, value)

    def _sketch_insert(self, priority: float, value: float) -> None:
        if len(self.sample) >= self.capacity and priority >= self.sample[-1][0]:
            return
        bisect.insort(self.sample, (priority, value))
        if len(self.sample) > self.capacity:
            self.sample.pop()

    # --------------------------------------------------------------- queries
    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    @property
    def sketch_values(self) -> List[float]:
        """The sketched sample values (the whole sample below capacity)."""
        return [value for _, value in self.sample]

    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (nothing was evicted yet)."""
        return self.count <= self.capacity

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (exact while :attr:`exact` holds)."""
        if self.count == 0:
            raise ValueError("percentile of an empty accumulator")
        return percentile(self.sketch_values, q)

    def to_summary_stats(self) -> SummaryStats:
        """The :class:`~.stats.SummaryStats` view used by reports and sweeps."""
        if self.count == 0:
            raise ValueError("cannot summarize an empty accumulator")
        std = self.std
        return SummaryStats(
            count=self.count,
            mean=self.mean,
            std=std,
            minimum=self.minimum,
            maximum=self.maximum,
            median=self.percentile(50.0),
            p90=self.percentile(90.0),
            ci95_half_width=ci95_half_width(self.count, std),
        )


# --------------------------------------------------------------- run summary
@dataclass(frozen=True)
class RunSummary:
    """The O(1)-size digest of one run that crosses the worker pipe.

    Carries everything the sweep layer and the experiment drivers consume:
    the numeric metric fields (derived ratios included), the boolean
    outcome flags, and the sketch priority of the run.
    """

    seed: int
    index: int
    priority: float
    algorithm: str
    terminated: bool
    safety_ok: bool
    decided: bool
    decided_value: Optional[int]
    values: Dict[str, float]

    @classmethod
    def from_result(cls, result: "RunResult", index: int, priority: float) -> "RunSummary":
        """Digest one full :class:`~.runner.RunResult` into a summary."""
        from .metrics import numeric_metric_values

        return cls(
            seed=result.config.seed,
            index=index,
            priority=priority,
            algorithm=result.config.algorithm,
            terminated=result.metrics.terminated,
            safety_ok=result.report.safety_ok,
            decided=bool(result.sim_result.decisions),
            decided_value=result.metrics.decided_value,
            values=numeric_metric_values(result.metrics),
        )


class Reducer(Protocol):
    """Worker-side reduction applied by :func:`~.parallel.run_many`.

    A reducer must be picklable (a module-level function or a dataclass of
    picklable fields), because it travels to the worker processes alongside
    each configuration.  It receives the full :class:`~.runner.RunResult`
    and the run's index in the batch, and whatever it returns is what
    crosses the pipe back to the parent.
    """

    def __call__(self, result: "RunResult", index: int) -> Any:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SummaryReducer:
    """The standard reducer: ``RunResult`` -> :class:`RunSummary`.

    ``entropy`` seeds the per-run priority streams; the default of 0 keeps
    summaries comparable across sweeps (the sketch keeps the same run
    indices for every metric and every sweep point).

    ``start`` and ``step`` remap the batch position ``t`` that
    :func:`~.parallel.run_many` hands the reducer to the run's *logical*
    index ``start + t * step``.  The defaults are the identity, which is what
    a whole batch executed in one place wants.  A shard of a larger sweep
    (see :mod:`~repro.harness.distributed`) executes an index-strided subset
    of the batch, and uses the remap so every run keeps the priority it
    would have had in the unsharded execution -- the property that makes
    merged shard aggregates bit-identical to the single-host sweep.
    """

    entropy: int = 0
    start: int = 0
    step: int = 1

    def __call__(self, result: "RunResult", index: int) -> RunSummary:
        index = self.start + index * self.step
        return RunSummary.from_result(result, index, run_priority(self.entropy, index))


# -------------------------------------------------------------- run aggregate
@dataclass
class RunAggregate:
    """Aggregate of many :class:`RunSummary` objects.

    One :class:`StreamingStats` per numeric metric, plus outcome counters.
    :func:`~.distributed.run_plan` returns one per plan point, and every
    merge of a run directory folds one per point through
    :func:`~.distributed.fold_point`.
    """

    capacity: int = SKETCH_CAPACITY
    count: int = 0
    terminated_count: int = 0
    safe_count: int = 0
    decided_count: int = 0
    stats: Dict[str, StreamingStats] = field(default_factory=dict)

    # ------------------------------------------------------------- ingestion
    def add(self, summary: RunSummary) -> None:
        """Fold one run summary into the counters and per-metric stats."""
        self.count += 1
        self.terminated_count += 1 if summary.terminated else 0
        self.safe_count += 1 if summary.safety_ok else 0
        self.decided_count += 1 if summary.decided else 0
        for name, value in summary.values.items():
            accumulator = self.stats.get(name)
            if accumulator is None:
                accumulator = StreamingStats(capacity=self.capacity)
                self.stats[name] = accumulator
            accumulator.add(value, priority=summary.priority)

    @classmethod
    def from_summaries(
        cls, summaries: Iterable[RunSummary], capacity: int = SKETCH_CAPACITY
    ) -> "RunAggregate":
        """Fold summaries in iteration order (run-index order in the harness)."""
        aggregate = cls(capacity=capacity)
        for summary in summaries:
            aggregate.add(summary)
        return aggregate

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self.count

    def metric_names(self) -> List[str]:
        """The aggregated metric names, sorted."""
        return sorted(self.stats)

    def _stat(self, metric: str) -> StreamingStats:
        try:
            return self.stats[metric]
        except KeyError:
            raise KeyError(
                f"no aggregated metric {metric!r}; available: {self.metric_names()}"
            ) from None

    def mean(self, metric: str) -> float:
        """Mean of one aggregated metric."""
        return self._stat(metric).mean

    def std(self, metric: str) -> float:
        """Sample standard deviation of one aggregated metric."""
        return self._stat(metric).std

    def minimum(self, metric: str) -> float:
        """Smallest observed value of one aggregated metric."""
        return self._stat(metric).minimum

    def maximum(self, metric: str) -> float:
        """Largest observed value of one aggregated metric."""
        return self._stat(metric).maximum

    def percentile(self, metric: str, q: float) -> float:
        """Estimated ``q``-th percentile of one aggregated metric."""
        return self._stat(metric).percentile(q)

    def summary(self, metric: str) -> SummaryStats:
        """The :class:`~.stats.SummaryStats` view of one aggregated metric."""
        return self._stat(metric).to_summary_stats()

    def termination_rate(self) -> float:
        """Fraction of runs in which every correct process decided."""
        return self.terminated_count / self.count if self.count else 0.0

    def safety_rate(self) -> float:
        """Fraction of runs whose safety properties all held."""
        return self.safe_count / self.count if self.count else 0.0

    def decided_rate(self) -> float:
        """Fraction of runs in which at least one process decided."""
        return self.decided_count / self.count if self.count else 0.0
