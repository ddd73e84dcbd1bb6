"""Small statistics helpers for aggregating repeated runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample of numbers."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p90: float
    ci95_half_width: float

    @property
    def ci95(self) -> tuple:
        """Approximate 95% confidence interval for the mean (normal approx.)."""
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)

    def format(self, precision: int = 2) -> str:
        """A compact one-line rendering: ``mean ± ci (min, med, max, n)``."""
        return (
            f"{self.mean:.{precision}f} ± {self.ci95_half_width:.{precision}f} "
            f"(min {self.minimum:.{precision}f}, med {self.median:.{precision}f}, "
            f"max {self.maximum:.{precision}f}, n={self.count})"
        )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on an empty sample)."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation (0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((value - mu) ** 2 for value in values) / (len(values) - 1))


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    lower = float(ordered[low])
    upper = float(ordered[high])
    weight = rank - low
    # ``lower*(1-w) + upper*w`` can land strictly outside [lower, upper] for
    # near-equal tiny floats; the incremental form plus a clamp cannot.
    value = lower + weight * (upper - lower)
    return min(max(value, lower), upper)


def ci95_half_width(count: int, std: float) -> float:
    """Half-width of the normal-approximation 95% CI for a sample mean."""
    if count < 2:
        return 0.0
    return 1.96 * std / math.sqrt(count)


def summarize(values: Iterable[float]) -> SummaryStats:
    """Summary statistics for a sample (raises on an empty sample)."""
    data = [float(value) for value in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    mu = mean(data)
    std = sample_std(data)
    half_width = ci95_half_width(len(data), std)
    return SummaryStats(
        count=len(data),
        mean=mu,
        std=std,
        minimum=min(data),
        maximum=max(data),
        median=median(data),
        p90=percentile(data, 90.0),
        ci95_half_width=half_width,
    )

