"""Message-delay models for the asynchronous network.

The paper only assumes that message transit times are finite but arbitrary.
The simulator makes them concrete through a pluggable :class:`DelayModel`;
experiments use different models to check that results do not hinge on a
particular delay distribution.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List


def _require_finite(model: "DelayModel", *names: str) -> None:
    """Refuse a NaN or infinite parameter, naming the model class and the field.

    A NaN delay puts NaN keys in the kernel's heaps and an infinite one a
    message that never arrives; neither is a delay the paper's model grants.
    """
    for name in names:
        value = getattr(model, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(model).__name__}.{name} must be finite, got {value!r}")


class DelayModel(ABC):
    """Samples per-message transit delays (virtual-time units)."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay; must be strictly positive and finite."""

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """Draw ``k`` delays at once, amortizing the per-call overhead.

        The contract is *exact-sequence*: the returned list is bit-identical
        to calling :meth:`sample` ``k`` times, and ``rng`` is left in the
        same state, so a caller may freely interleave batched and per-call
        draws (the transport's delay cache relies on this).  The base
        implementation is the per-call loop; models whose draw recipe is a
        fixed arithmetic transform of ``rng.random()`` override it with a
        comprehension over the very ``rng.random()`` calls :meth:`sample`
        makes, which drops the per-sample method frames and nothing else.
        Each override keeps a ``type(self) is not X`` guard, so a subclass
        that redefines :meth:`sample` gets the per-call loop back.
        """
        sample = self.sample
        return [sample(rng) for _ in range(k)]

    def describe(self) -> str:
        """A short human-readable label for reports and plots."""
        return repr(self)


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every message takes exactly ``value`` time units (synchronous-looking)."""

    value: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "value")
        if self.value <= 0:
            raise ValueError("delay must be positive")

    def sample(self, rng: random.Random) -> float:
        """Return the constant; ``rng`` is untouched."""
        return self.value

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """``k`` copies of the constant; no RNG draws, like :meth:`sample`."""
        if type(self) is not ConstantDelay:
            return super().sample_batch(rng, k)
        return [self.value] * k


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` (the default model)."""

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        _require_finite(self, "low", "high")
        if self.low <= 0 or self.high < self.low:
            raise ValueError("need 0 < low <= high")

    def sample(self, rng: random.Random) -> float:
        """One uniform draw from ``[low, high]``."""
        return rng.uniform(self.low, self.high)

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """Inlined refill: ``uniform(a, b)`` is ``a + (b - a) * random()``.

        The same affine transform CPython applies per call, over the same
        ``k`` ``rng.random()`` calls, so the sequence is bit-exact.
        """
        if type(self) is not UniformDelay:
            return super().sample_batch(rng, k)
        low = self.low
        span = self.high - self.low
        rand = rng.random
        return [low + span * rand() for _ in range(k)]


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Memoryless delays with the given ``mean`` (plus a small floor)."""

    mean: float = 1.0
    floor: float = 1e-3

    def __post_init__(self) -> None:
        _require_finite(self, "mean", "floor")
        if self.mean <= 0 or self.floor < 0:
            raise ValueError("mean must be positive and floor non-negative")

    def sample(self, rng: random.Random) -> float:
        """One exponential draw of the given mean, shifted by the floor."""
        return self.floor + rng.expovariate(1.0 / self.mean)

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """Inlined refill via the inverse-CDF recipe ``expovariate`` uses.

        CPython's ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``;
        the identical expression over the same ``k`` ``rng.random()`` calls
        keeps the sequence bit-exact.
        """
        if type(self) is not ExponentialDelay:
            return super().sample_batch(rng, k)
        floor = self.floor
        lambd = 1.0 / self.mean
        log = math.log
        rand = rng.random
        return [floor + -log(1.0 - rand()) / lambd for _ in range(k)]


@dataclass(frozen=True)
class LogNormalDelay(DelayModel):
    """Right-skewed delays typical of datacentre tail latencies.

    Deliberately keeps the base per-call :meth:`DelayModel.sample_batch`
    loop: ``lognormvariate`` sits on CPython's rejection-sampled
    ``normalvariate``, which consumes a *variable* number of uniforms per
    draw, so there is no fixed per-sample recipe to inline.
    """

    median: float = 1.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self, "median", "sigma")
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")

    def sample(self, rng: random.Random) -> float:
        """One log-normal draw with the configured median and shape."""
        return rng.lognormvariate(math.log(self.median), self.sigma)


@dataclass(frozen=True)
class SpikeDelay(DelayModel):
    """Mostly-fast delays with occasional large spikes.

    With probability ``spike_probability`` the delay is drawn uniformly from
    ``[spike_low, spike_high]``; otherwise from ``[low, high]``.  Models an
    adversarial network that occasionally delays messages for a long time.
    """

    low: float = 0.5
    high: float = 1.5
    spike_probability: float = 0.05
    spike_low: float = 10.0
    spike_high: float = 30.0

    def __post_init__(self) -> None:
        _require_finite(self, "low", "high", "spike_low", "spike_high")
        if not 0 <= self.spike_probability <= 1:
            raise ValueError("spike_probability must be in [0, 1]")
        if self.low <= 0 or self.high < self.low:
            raise ValueError("need 0 < low <= high")
        if self.spike_low <= 0 or self.spike_high < self.spike_low:
            raise ValueError("need 0 < spike_low <= spike_high")

    def sample(self, rng: random.Random) -> float:
        """Two draws: the spike coin, then the magnitude of either branch."""
        if rng.random() < self.spike_probability:
            return rng.uniform(self.spike_low, self.spike_high)
        return rng.uniform(self.low, self.high)

    def sample_batch(self, rng: random.Random, k: int) -> List[float]:
        """Inlined refill: every sample consumes exactly two draws.

        One uniform for the spike coin, then one for the magnitude --
        whichever branch the coin picks -- in the per-call order, so ``k``
        samples are ``2 * k`` ``rng.random()`` calls, bit-exactly.
        """
        if type(self) is not SpikeDelay:
            return super().sample_batch(rng, k)
        p = self.spike_probability
        low, span = self.low, self.high - self.low
        spike_low, spike_span = self.spike_low, self.spike_high - self.spike_low
        rand = rng.random
        # A conditional expression evaluates its condition (the coin) first.
        return [
            spike_low + spike_span * rand() if rand() < p else low + span * rand()
            for _ in range(k)
        ]
