"""Deterministic random-number management for simulations.

Every stochastic choice in a simulation (message delays, scheduler
tie-breaking, coin flips, crash times, workload generation) draws from a
named stream derived from a single master seed.  Two runs configured with
the same master seed therefore produce identical executions, which is what
makes the experiments in this repository reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional, Tuple


class RandomSource:
    """A factory of independent, named pseudo-random streams.

    Each stream is a plain :class:`random.Random` seeded from the master
    seed combined with the stream name through SHA-256, so streams with
    different names are statistically independent and insensitive to the
    order in which they are requested.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this source was created with."""
        return self._seed

    def _derive(self, name_parts: Tuple[str, ...]) -> int:
        material = repr((self._seed,) + name_parts).encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, *name_parts: object) -> random.Random:
        """Return the stream registered under ``name_parts`` (cached).

        Repeated calls with the same name return the *same* generator
        object, so a stream's state advances across uses, while different
        names never share state.
        """
        key = tuple(str(part) for part in name_parts)
        if key not in self._streams:
            self._streams[key] = random.Random(self._derive(key))
        return self._streams[key]

    def lazy_stream(self, *name_parts: object) -> "LazyStream":
        """The stream :meth:`stream` would return, derived on its first draw.

        For consumers that may never draw -- a local coin that is never
        flipped, a proposal pattern that is not ``random`` -- deriving a
        stream (a SHA-256 and a Mersenne Twister seeding) would be wasted.
        A stream's seed depends only on its name, so deriving it late
        changes no draw.
        """
        return LazyStream(self, name_parts)

    @property
    def derived(self) -> Tuple[Tuple[str, ...], ...]:
        """The names of the streams derived so far, in derivation order."""
        return tuple(self._streams)

    def spawn(self, *name_parts: object) -> "RandomSource":
        """Create a child :class:`RandomSource` with an independent seed.

        Useful when a component (e.g. a workload generator) needs its own
        namespace of streams that cannot collide with the parent's.
        """
        key = tuple(str(part) for part in name_parts)
        return RandomSource(self._derive(("spawn",) + key))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomSource(seed={self._seed}, streams={len(self._streams)})"


class LazyStream:
    """Stands in for the :class:`random.Random` of one named stream.

    The first attribute read that is not its own (``randrange``,
    ``random``, ...) derives the stream from its :class:`RandomSource` and
    forwards to it; later reads forward to the same generator.
    """

    __slots__ = ("_source", "_name_parts", "_stream")

    def __init__(self, source: RandomSource, name_parts: Tuple[object, ...]) -> None:
        self._source = source
        self._name_parts = name_parts
        self._stream: Optional[random.Random] = None

    def __getattr__(self, attribute: str):
        if attribute.startswith("_"):
            # Private and special names are not the stream's to answer (and
            # an unset slot must not recurse into this method).
            raise AttributeError(attribute)
        stream = self._stream
        if stream is None:
            stream = self._stream = self._source.stream(*self._name_parts)
        return getattr(stream, attribute)
