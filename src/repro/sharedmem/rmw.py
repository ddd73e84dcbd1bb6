"""Read-modify-write synchronization primitives.

The paper's model (Section II-A) enriches each cluster memory with an
operation of infinite consensus number, naming ``compare&swap()`` as the
canonical example.  This module provides the two such primitives the
cluster-limited consensus objects are built on (``consensus_kind``
``"cas"`` and ``"llsc"``): compare&swap and load-linked/store-conditional,
both of which solve consensus for any number of processes.
"""

from __future__ import annotations

from typing import Any, Dict

from .register import AtomicRegister


class CompareAndSwapRegister(AtomicRegister):
    """An atomic register with ``compare&swap`` (consensus number infinity)."""

    def compare_and_swap(self, expected: Any, new: Any) -> bool:
        """If the value equals ``expected``, replace it with ``new``.

        Returns ``True`` when the swap took effect.
        """
        self.stats.rmw_ops += 1
        if self._value == expected:
            self._value = new
            self._record("cas", new)
            return True
        return False


class LLSCRegister(AtomicRegister):
    """A register with load-linked / store-conditional.

    ``store_conditional`` by process ``pid`` succeeds only if no other write
    (by any process, through any operation) happened since ``pid``'s last
    ``load_linked``.
    """

    def __init__(self, name: str = "llsc", initial: Any = None) -> None:
        super().__init__(name, initial)
        self._version = 0
        self._linked_version: Dict[int, int] = {}

    def write(self, value: Any) -> None:
        self._version += 1
        super().write(value)

    def load_linked(self, pid: int) -> Any:
        """Read the value and remember the version seen by ``pid``."""
        self.stats.rmw_ops += 1
        self._linked_version[pid] = self._version
        return self._value

    def store_conditional(self, pid: int, value: Any) -> bool:
        """Write ``value`` iff no write occurred since ``pid``'s load_linked."""
        self.stats.rmw_ops += 1
        linked = self._linked_version.get(pid)
        if linked is None or linked != self._version:
            return False
        self._version += 1
        self._value = value
        self._record("sc", value)
        return True
