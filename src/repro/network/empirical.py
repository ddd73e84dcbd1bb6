"""Trace-driven delay models: fit real RTT data, replay recorded traces.

Every model in :mod:`repro.network.delays` is synthetic.  This module closes
the loop to measured networks three ways:

* :class:`EmpiricalDelay` -- inverse-transform sampling over an ECDF
  compressed to a fixed-resolution quantile grid fit from an RTT sample set
  (:meth:`EmpiricalDelay.fit`).  One uniform draw per sample, so the batched
  refill inlines the same arithmetic transform, as the synthetic models do.
* :class:`ShiftedLogNormalDelay` -- a three-parameter shifted log-normal
  (the classic parametric fit for WAN RTTs: a propagation-delay floor plus a
  right-skewed queueing tail), fit by method of moments on the log scale
  (:meth:`ShiftedLogNormalDelay.fit`).
* :class:`TraceReplayDelay` -- replays a recorded per-link delay trace
  deterministically, in order, drawing no randomness at all; running past
  the end raises :class:`TraceExhausted` instead of silently wrapping.

All three honour the exact-sequence ``sample_batch`` contract (see
:class:`~repro.network.delays.DelayModel`) and have stable value-only
``repr``\\ s, so they enter :class:`~repro.harness.distributed.SweepPlan`
fingerprints and keep sharded merges bit-identical to single-host runs.

:func:`load_rtt_samples` reads RTT datasets from CSV or JSONL files (a small
committed fixture lives under ``tests/data/``), and ``python -m repro
fit-delays`` fits a model from such a file and prints its repr, ready to
paste into an :class:`~repro.harness.runner.ExperimentConfig`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from .delays import DelayModel, register_delay_model

#: Default number of grid intervals an :meth:`EmpiricalDelay.fit` keeps.
DEFAULT_RESOLUTION = 64

#: Column names (case-insensitive) the loader recognises in CSV headers and
#: JSONL objects, in preference order.
RTT_FIELD_NAMES = ("rtt_ms", "rtt", "delay_ms", "delay", "latency_ms", "latency")

#: A reference RTT sample set (milliseconds), shaped like a measured WAN
#: path: a ~23 ms propagation floor, a right-skewed queueing body around
#: 40 ms and occasional congestion spikes past 100 ms.  Committed here (and
#: mirrored in ``tests/data/rtt_sample.csv``) so every host building an e11
#: plan fits the identical models without touching the filesystem.
REFERENCE_RTT_MS: Tuple[float, ...] = (
    46.424, 42.033, 36.458, 42.728, 42.73, 37.121, 39.045, 35.254, 47.335,
    52.329, 65.602, 53.971, 46.468, 38.772, 41.752, 43.11, 34.882, 37.991,
    45.806, 108.106, 41.323, 47.214, 46.519, 31.599, 32.303, 246.575,
    52.909, 26.219, 36.279, 32.055, 147.518, 32.083, 34.18, 61.022, 57.339,
    55.39, 43.774, 27.169, 44.227, 41.498, 40.429, 135.898, 48.542, 28.139,
    62.886, 81.271, 29.631, 44.002, 46.415, 36.042, 34.403, 23.004, 63.762,
    30.342, 150.681, 37.886, 28.896, 30.554, 44.035, 30.78, 35.267, 50.436,
    42.097, 43.167, 43.149, 31.303, 50.495, 62.272, 41.681, 46.021, 26.853,
    35.934, 27.378, 38.628, 252.117, 47.319, 24.363, 183.684, 32.12,
    42.053, 34.746, 228.949, 192.539, 29.54, 74.045, 60.126, 47.592,
    31.827, 35.095, 44.033, 34.571, 57.112, 28.536, 38.104, 55.862, 42.373,
)


class TraceExhausted(RuntimeError):
    """A :class:`TraceReplayDelay` was asked for more draws than it holds."""


def _check_samples(samples: Sequence[float], what: str) -> List[float]:
    """Validate a sample collection: at least two positive finite floats."""
    values = [float(value) for value in samples]
    if len(values) < 2:
        raise ValueError(f"{what} needs at least 2 samples, got {len(values)}")
    for value in values:
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{what} must be positive finite numbers, got {value!r}")
    return values


def empirical_quantile(sorted_samples: Sequence[float], p: float) -> float:
    """The linearly interpolated empirical quantile of pre-sorted data.

    The same linear-interpolation rule (``numpy.quantile``'s default) both
    :meth:`EmpiricalDelay.fit` and the property tests use, so "within sketch
    error of the source data" is checkable against one shared definition.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile probability must be in [0, 1], got {p}")
    position = p * (len(sorted_samples) - 1)
    index = int(position)
    if index >= len(sorted_samples) - 1:
        return float(sorted_samples[-1])
    fraction = position - index
    low = sorted_samples[index]
    return float(low + (sorted_samples[index + 1] - low) * fraction)


def scale_to_unit_mean(samples: Sequence[float]) -> List[float]:
    """Rescale positive samples so their mean is exactly 1.0.

    The simulator's virtual time unit is "one mean transit" (the default
    ``UniformDelay`` has mean 1), so a measured RTT distribution must be
    normalised before it can replace a synthetic model without rescaling
    every experiment's time windows.  Shape (and therefore tail behaviour)
    is preserved; only the unit changes.
    """
    values = _check_samples(samples, "samples")
    mean = math.fsum(values) / len(values)
    return [value / mean for value in values]


@dataclass(frozen=True)
class EmpiricalDelay(DelayModel):
    """Inverse-transform sampling over an ECDF quantile grid.

    ``quantiles`` holds the inverse CDF evaluated at the evenly spaced
    probabilities ``i / (len(quantiles) - 1)``; a sample draws one uniform
    and linearly interpolates between the two bracketing grid points.  The
    grid is a fixed-size sketch of the source data (see :meth:`fit`), so the
    repr stays bounded no matter how large the RTT capture was, while any
    quantile of the model stays within one grid cell of the source's.
    """

    quantiles: Tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(value) for value in self.quantiles)
        if len(values) < 2:
            raise ValueError(f"need at least 2 grid quantiles, got {len(values)}")
        previous = 0.0
        for value in values:
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"grid quantiles must be positive and finite, got {value!r}")
            if value < previous:
                raise ValueError(f"grid quantiles must be non-decreasing, got {values}")
            previous = value
        object.__setattr__(self, "quantiles", values)

    @classmethod
    def fit(
        cls, samples: Sequence[float], resolution: int = DEFAULT_RESOLUTION
    ) -> "EmpiricalDelay":
        """Compress ``samples`` into a ``resolution``-interval quantile grid.

        The grid point ``j`` is the (linearly interpolated) empirical
        quantile of the data at probability ``j / resolution``.  Everything
        is plain float arithmetic on sorted data, so two hosts fitting the
        same sample set build the bit-identical model.
        """
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        data = sorted(_check_samples(samples, "samples"))
        return cls(
            tuple(empirical_quantile(data, j / resolution) for j in range(resolution + 1))
        )

    @property
    def resolution(self) -> int:
        """The number of grid intervals (``len(quantiles) - 1``)."""
        return len(self.quantiles) - 1

    def quantile(self, p: float) -> float:
        """The model's inverse CDF at probability ``p`` in ``[0, 1]``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {p}")
        quantiles = self.quantiles
        position = p * (len(quantiles) - 1)
        index = int(position)
        if index >= len(quantiles) - 1:
            return quantiles[-1]
        low = quantiles[index]
        return low + (quantiles[index + 1] - low) * (position - index)

    def sample(self, rng: random.Random) -> float:
        """One draw: a single uniform pushed through the interpolated grid."""
        quantiles = self.quantiles
        position = rng.random() * (len(quantiles) - 1)
        index = int(position)
        low = quantiles[index]
        return low + (quantiles[index + 1] - low) * (position - index)

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """Inlined refill: the same interpolation, once per ``rng.random()``.

        One ``rng.random()`` per sample, transformed by the identical
        expression :meth:`sample` uses -- bit-exact to ``k`` per-call draws
        with the rng left in the identical state.
        """
        if type(self) is not EmpiricalDelay:
            return super().sample_batch(rng, k)
        quantiles = self.quantiles
        span = len(quantiles) - 1
        rand = rng.random
        out = []
        append = out.append
        for _ in range(k):
            position = rand() * span
            index = int(position)
            low = quantiles[index]
            append(low + (quantiles[index + 1] - low) * (position - index))
        return out

    def describe(self) -> str:
        """A bounded label (the full grid repr can be hundreds of floats)."""
        quantiles = self.quantiles
        return (
            f"EmpiricalDelay(resolution={self.resolution}, lo={quantiles[0]!r}, "
            f"median={self.quantile(0.5)!r}, hi={quantiles[-1]!r})"
        )


@dataclass(frozen=True)
class ShiftedLogNormalDelay(DelayModel):
    """A log-normal body riding on a constant propagation floor.

    ``shift + lognormvariate(log(median), sigma)``: the classic parametric
    RTT model (minimum path latency plus multiplicative queueing noise).
    Like :class:`~repro.network.delays.LogNormalDelay` it keeps the base
    per-call ``sample_batch`` loop -- CPython's ``lognormvariate`` sits on
    rejection-sampled ``normalvariate``, which consumes a variable number of
    uniforms per draw, so there is no fixed per-sample recipe to inline.
    """

    shift: float = 0.5
    median: float = 0.4
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.shift < 0 or not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")

    @classmethod
    def fit(cls, samples: Sequence[float]) -> "ShiftedLogNormalDelay":
        """Method-of-moments fit on the log scale.

        The floor is anchored just below the sample minimum (95% of it, the
        standard plug-in estimate keeping every residual positive), then the
        residuals' log mean and log standard deviation give the median and
        sigma.  Deterministic plain-float arithmetic: equal inputs fit the
        bit-identical model on every host.
        """
        values = _check_samples(samples, "samples")
        shift = 0.95 * min(values)
        logs = [math.log(value - shift) for value in values]
        mu = math.fsum(logs) / len(logs)
        variance = math.fsum((value - mu) ** 2 for value in logs) / (len(logs) - 1)
        sigma = max(math.sqrt(variance), 1e-6)
        return cls(shift=shift, median=math.exp(mu), sigma=sigma)

    def sample(self, rng: random.Random) -> float:
        """One shifted log-normal draw."""
        return self.shift + rng.lognormvariate(math.log(self.median), self.sigma)


#: Per-stream replay positions: ``rng -> {model: next_index}``.  Keyed on
#: the consuming rng (each run's network owns a dedicated delays stream), so
#: concurrent runs -- cooperative kernels interleaved in one process, or
#: sequential runs reusing one model object -- each replay the trace from
#: the top without sharing or resetting any state on the (frozen, picklable)
#: model itself.  Weak keys let finished runs' cursors be collected.
_REPLAY_CURSORS: "weakref.WeakKeyDictionary[random.Random, Dict[TraceReplayDelay, int]]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class TraceReplayDelay(DelayModel):
    """Replay a recorded delay trace deterministically, in capture order.

    Draws **no** randomness: delay ``i`` of a run is ``trace[i]``, whatever
    the seed, which turns a captured production trace into a repeatable
    schedule.  The replay position is tracked per consuming rng stream (not
    on this frozen value object), so every run starts from the top and the
    exact-sequence ``sample_batch`` contract holds trivially.  Asking for
    more draws than the trace holds raises :class:`TraceExhausted` -- a
    wrapped replay would silently correlate delays across unrelated
    messages, so running dry must be loud.  Mind that the transport's delay
    cache prefetches draws in doubling blocks (up to 512), so a trace needs
    headroom beyond the exact number of messages sent.
    """

    trace: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", tuple(_check_samples(self.trace, "trace")))

    def __len__(self) -> int:
        return len(self.trace)

    def _cursor(self, rng: random.Random) -> Dict["TraceReplayDelay", int]:
        positions = _REPLAY_CURSORS.get(rng)
        if positions is None:
            positions = _REPLAY_CURSORS[rng] = {}
        return positions

    def sample(self, rng: random.Random) -> float:
        """The next trace entry for this rng stream; ``rng`` is untouched."""
        positions = self._cursor(rng)
        index = positions.get(self, 0)
        if index >= len(self.trace):
            raise TraceExhausted(
                f"delay trace exhausted: draw {index + 1} requested but the trace "
                f"holds only {len(self.trace)} entries; record a longer trace "
                f"(the transport prefetches in blocks) instead of wrapping around"
            )
        positions[self] = index + 1
        return self.trace[index]

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """A slice of the trace in replay order (exact-sequence trivially).

        When fewer than ``k`` entries remain, fall back to the per-call
        loop, which consumes the tail and then raises the identical
        :class:`TraceExhausted` a ``k``-times-``sample`` caller would see.
        """
        if type(self) is not TraceReplayDelay:
            return super().sample_batch(rng, k)
        positions = self._cursor(rng)
        index = positions.get(self, 0)
        if index + k <= len(self.trace):
            positions[self] = index + k
            return list(self.trace[index : index + k])
        return super().sample_batch(rng, k)

    def replayed(self, rng: random.Random) -> int:
        """How many entries this rng stream has consumed (for diagnostics)."""
        return _REPLAY_CURSORS.get(rng, {}).get(self, 0)

    def describe(self) -> str:
        """A bounded label: length plus a digest pinning the exact values."""
        digest = json.dumps([float(v).hex() for v in self.trace]).encode("utf-8")
        return (
            f"TraceReplayDelay(length={len(self.trace)}, "
            f"sha256={hashlib.sha256(digest).hexdigest()[:12]})"
        )


# ------------------------------------------------------------------ loading
def _parse_number(text: str) -> float:
    value = float(text)
    return value


def _rtt_from_mapping(record: dict, where: str) -> float:
    lowered = {str(key).lower(): value for key, value in record.items()}
    for name in RTT_FIELD_NAMES:
        if name in lowered:
            return float(lowered[name])
    raise ValueError(
        f"{where}: no RTT field found; expected one of {', '.join(RTT_FIELD_NAMES)}"
    )


def _load_jsonl(path: Path) -> List[float]:
    samples: List[float] = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path.name}:{line_number}: not valid JSON: {error}") from None
        if isinstance(record, bool):
            raise ValueError(f"{path.name}:{line_number}: expected a number or object")
        if isinstance(record, (int, float)):
            samples.append(float(record))
        elif isinstance(record, dict):
            samples.append(_rtt_from_mapping(record, f"{path.name}:{line_number}"))
        else:
            raise ValueError(
                f"{path.name}:{line_number}: expected a number or object, got {record!r}"
            )
    return samples


def _load_csv(path: Path) -> List[float]:
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        return []
    header = [cell.strip().lower() for cell in rows[0]]
    column = None
    for name in RTT_FIELD_NAMES:
        if name in header:
            column = header.index(name)
            break
    start = 0
    if column is not None:
        start = 1
    else:
        try:
            _parse_number(rows[0][0])
            column = 0
        except ValueError:
            raise ValueError(
                f"{path.name}: no RTT column found; expected a header naming one of "
                f"{', '.join(RTT_FIELD_NAMES)} or a first column of numbers"
            ) from None
    samples: List[float] = []
    for line_number, row in enumerate(rows[start:], start=start + 1):
        if column >= len(row):
            raise ValueError(f"{path.name}:{line_number}: row has no column {column}")
        try:
            samples.append(_parse_number(row[column]))
        except ValueError:
            raise ValueError(
                f"{path.name}:{line_number}: not a number: {row[column]!r}"
            ) from None
    return samples


def load_rtt_samples(path: Union[str, Path]) -> List[float]:
    """Read an RTT sample set from a CSV or JSONL file.

    JSONL (``.jsonl`` / ``.ndjson``): one JSON number per line, or objects
    carrying one of the :data:`RTT_FIELD_NAMES` keys.  Anything else is read
    as CSV: a header row naming such a column, or headerless numeric rows
    (first column).  Values must be positive and finite, and at least two
    are required -- the validation every fit shares.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"RTT dataset {path} does not exist or is not a file")
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        samples = _load_jsonl(path)
    else:
        samples = _load_csv(path)
    return _check_samples(samples, f"RTT dataset {path.name}")


#: Names ``fit_delay_model`` (and ``python -m repro fit-delays``) accepts.
FIT_MODEL_KINDS = ("empirical", "shifted-lognormal", "replay")


def fit_delay_model(
    samples: Sequence[float],
    kind: str = "empirical",
    resolution: int = DEFAULT_RESOLUTION,
    unit_mean: bool = False,
) -> DelayModel:
    """Fit one of the trace-driven models to an RTT sample set.

    ``unit_mean`` rescales the samples to mean 1.0 first (see
    :func:`scale_to_unit_mean`) so the result can stand in for the synthetic
    unit-mean models without retuning experiment time windows.
    """
    values = scale_to_unit_mean(samples) if unit_mean else _check_samples(samples, "samples")
    if kind == "empirical":
        return EmpiricalDelay.fit(values, resolution=resolution)
    if kind == "shifted-lognormal":
        return ShiftedLogNormalDelay.fit(values)
    if kind == "replay":
        return TraceReplayDelay(tuple(values))
    raise ValueError(f"unknown model kind {kind!r}; choose from {FIT_MODEL_KINDS}")


register_delay_model("empirical", EmpiricalDelay)
register_delay_model("shifted-lognormal", ShiftedLogNormalDelay)
register_delay_model("trace-replay", TraceReplayDelay)
