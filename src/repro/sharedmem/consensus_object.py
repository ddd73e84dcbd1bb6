"""Intra-cluster consensus objects built from synchronization primitives.

Because each cluster memory provides an operation with infinite consensus
number (compare&swap in this implementation), consensus *inside a cluster*
is solvable deterministically and wait-free for any number of crashes
[Herlihy 1991].  The paper assumes each cluster exposes such "cluster-limited
consensus objects"; here they are built explicitly on top of the primitives
of :mod:`repro.sharedmem.rmw`, one shared-memory operation at a time, so the
substrate layering matches the paper's model section.

Algorithms invoke ``propose`` through the process context::

    decided = yield from cons.propose(ctx, value)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Set

from .register import MemoryAccessError
from .rmw import CompareAndSwapRegister, LLSCRegister


class _Unset:
    """Private sentinel for "no value proposed yet" (distinct from ⊥ and None)."""

    _instance: Optional["_Unset"] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"


UNSET = _Unset()


@dataclass
class ConsensusObjectStats:
    """Counters of one consensus object's usage."""

    invocations: int = 0
    winners: int = 0
    proposers: Set[int] = field(default_factory=set)


class ConsensusObject:
    """Base class: a single-shot agreement object.

    Subclasses implement :meth:`propose` as a generator that performs the
    underlying shared-memory primitives through the process context.  All of
    them satisfy validity (the decided value was proposed), agreement (every
    ``propose`` returns the same value) and wait-freedom.
    """

    def __init__(self, name: str, members: Optional[Set[int]] = None) -> None:
        self.name = name
        self.members = set(members) if members is not None else None
        self.stats = ConsensusObjectStats()

    def _check_membership(self, pid: int) -> None:
        if self.members is not None and pid not in self.members:
            raise MemoryAccessError(
                f"process {pid} invoked consensus object {self.name!r} owned by cluster "
                f"members {sorted(self.members)}"
            )

    def propose(self, ctx, value):  # pragma: no cover - interface
        raise NotImplementedError

    def decided_value(self) -> Any:
        """The decided value, or ``UNSET`` if nobody proposed yet."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, decided={self.decided_value()!r})"


class CASConsensusObject(ConsensusObject):
    """Consensus from a single compare&swap register.

    ``propose(v)`` attempts ``CAS(UNSET -> v)`` and then reads the register:
    whichever proposal's CAS landed first is the decision for everybody.
    Two shared-memory operations per invocation.
    """

    def __init__(self, name: str, members: Optional[Set[int]] = None) -> None:
        super().__init__(name, members)
        self._register = CompareAndSwapRegister(f"{name}.cas", UNSET)

    def propose(self, ctx, value):
        self._check_membership(ctx.pid)
        self.stats.invocations += 1
        self.stats.proposers.add(ctx.pid)
        won = yield from ctx.sm_op(self._register.compare_and_swap, UNSET, value)
        if won:
            self.stats.winners += 1
        decided = yield from ctx.sm_op(self._register.read)
        return decided

    def decided_value(self) -> Any:
        return self._register.peek()

    @property
    def register(self) -> CompareAndSwapRegister:
        return self._register


class LLSCConsensusObject(ConsensusObject):
    """Consensus from a load-linked/store-conditional register.

    Functionally equivalent to :class:`CASConsensusObject`; provided to show
    that any primitive of infinite consensus number fits the paper's model.
    """

    def __init__(self, name: str, members: Optional[Set[int]] = None) -> None:
        super().__init__(name, members)
        self._register = LLSCRegister(f"{name}.llsc", UNSET)

    def propose(self, ctx, value):
        self._check_membership(ctx.pid)
        self.stats.invocations += 1
        self.stats.proposers.add(ctx.pid)
        while True:
            current = yield from ctx.sm_op(self._register.load_linked, ctx.pid)
            if current is not UNSET:
                return current
            stored = yield from ctx.sm_op(self._register.store_conditional, ctx.pid, value)
            if stored:
                self.stats.winners += 1
                return value

    def decided_value(self) -> Any:
        return self._register.peek()

