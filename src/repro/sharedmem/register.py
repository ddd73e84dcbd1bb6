"""Atomic (linearizable) read/write registers.

In the simulator every primitive operation is executed as one atomic kernel
step (see :class:`~repro.sim.context.SharedMemEffect`), so these objects only
need to implement the sequential semantics plus operation accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple


class MemoryAccessError(RuntimeError):
    """Raised when a process touches a memory it is not a member of."""


@dataclass
class RegisterStats:
    """Operation counters for one register."""

    reads: int = 0
    writes: int = 0
    rmw_ops: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes + self.rmw_ops


class AtomicRegister:
    """A multi-reader multi-writer atomic register."""

    def __init__(self, name: str = "register", initial: Any = None) -> None:
        self.name = name
        self._value = initial
        self.stats = RegisterStats()
        self._history: List[Tuple[str, Any]] = []

    def read(self) -> Any:
        """Return the current value."""
        self.stats.reads += 1
        return self._value

    def write(self, value: Any) -> None:
        """Overwrite the current value."""
        self.stats.writes += 1
        self._value = value
        self._history.append(("write", value))

    def peek(self) -> Any:
        """Inspect the value without counting an operation (tests/metrics only)."""
        return self._value

    @property
    def history(self) -> List[Tuple[str, Any]]:
        """The sequence of mutating operations applied so far."""
        return list(self._history)

    def _record(self, kind: str, value: Any) -> None:
        self._history.append((kind, value))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, value={self._value!r})"

