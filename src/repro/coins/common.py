"""Common coins (Section II-B).

A common coin delivers the *same* sequence of unbiased random bits
``b_1, b_2, ...`` to every process: the r-th invocation by any process
returns ``b_r``.  Real systems build common coins from secret sharing or
threshold cryptography (the paper defers to textbooks); the abstraction the
consensus algorithm needs is only "same unpredictable bit per round at every
process", which a dealer-seeded pseudo-random sequence provides exactly.
This substitution is recorded under "Substitutions" in
``docs/experiments.md``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional


class CommonCoin:
    """A shared, round-indexed sequence of unbiased random bits."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(("common-coin", seed).__repr__())
        self._bits: List[int] = []
        self.invocations = 0
        self.invocations_by_process: Dict[int, int] = defaultdict(int)

    def _ensure(self, round_number: int) -> None:
        """Draw bits lazily until round ``round_number`` has one."""
        while len(self._bits) < round_number:
            self._bits.append(self._rng.randrange(2))

    def bit(self, round_number: int, pid: Optional[int] = None) -> int:
        """The paper's ``common_coin()`` for round ``round_number`` (1-based).

        Every process invoking the coin for the same round observes the same
        bit.  ``pid`` is only used for per-process accounting.
        """
        if round_number < 1:
            raise ValueError("round numbers start at 1")
        self._ensure(round_number)
        self.invocations += 1
        if pid is not None:
            self.invocations_by_process[pid] += 1
        return self._bits[round_number - 1]

    def prefix(self, length: int) -> List[int]:
        """The first ``length`` bits of the shared sequence (for analysis)."""
        self._ensure(length)
        return list(self._bits[:length])

    def __repr__(self) -> str:
        return f"CommonCoin(bits_drawn={len(self._bits)}, invocations={self.invocations})"


class FixedSequenceCommonCoin(CommonCoin):
    """A common coin replaying a caller-supplied bit sequence (cyclically).

    Tests use it to pin down executions: e.g. forcing the coin to match (or
    to keep missing) the processes' estimates exercises both branches of
    Algorithm 3 deterministically.
    """

    def __init__(self, sequence: List[int]) -> None:
        super().__init__(seed=0)
        if not sequence or any(bit not in (0, 1) for bit in sequence):
            raise ValueError("sequence must be a non-empty list of bits")
        self._sequence = list(sequence)

    def _ensure(self, round_number: int) -> None:
        """Extend the bit sequence by replaying the fixed pattern."""
        while len(self._bits) < round_number:
            self._bits.append(self._sequence[len(self._bits) % len(self._sequence)])

    def __repr__(self) -> str:
        return f"FixedSequenceCommonCoin(sequence={self._sequence})"


class AdversarialCommonCoin(CommonCoin):
    """A common coin whose bits an "adversary" chooses per round.

    Bits not explicitly set fall back to a seeded pseudo-random draw.  The
    coin remains *common* (identical at all processes), as required by the
    model; only its distribution is adversarial.
    """

    def __init__(self, forced_bits: Optional[Dict[int, int]] = None, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.forced_bits = dict(forced_bits or {})
        for round_number, bit in self.forced_bits.items():
            if round_number < 1 or bit not in (0, 1):
                raise ValueError(f"invalid forced bit {bit!r} for round {round_number}")

    def _ensure(self, round_number: int) -> None:
        """Extend the bit sequence, honouring forced bits round by round."""
        while len(self._bits) < round_number:
            next_round = len(self._bits) + 1
            if next_round in self.forced_bits:
                self._bits.append(self.forced_bits[next_round])
            else:
                self._bits.append(self._rng.randrange(2))

    def force(self, round_number: int, bit: int) -> None:
        """Fix the bit of a not-yet-drawn round (tests only)."""
        if round_number <= len(self._bits):
            raise ValueError(f"round {round_number} has already been drawn")
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self.forced_bits[round_number] = bit
