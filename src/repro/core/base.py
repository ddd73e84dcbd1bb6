"""Shared definitions for the hybrid-model consensus algorithms.

This module defines the value domain (binary values plus the default value
``⊥``), the message payloads exchanged by the algorithms, the per-process
environment handed to each algorithm instance, and the common abstract base
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cluster.topology import ClusterTopology
from ..coins.common import CommonCoin
from ..coins.local import LocalCoin
from ..sharedmem.memory import ClusterSharedMemory


class ProtocolInvariantError(RuntimeError):
    """Raised when an execution violates an invariant the paper proves.

    If this ever fires, either the implementation or the environment broke
    one of the algorithm's assumptions (e.g. two processes of one cluster
    broadcast different values in the same phase); tests rely on it to catch
    regressions.
    """


#: ``hash(BOT)``: the code point of ``⊥`` (U+22A5).  A constant, unlike the
#: default identity hash, so a set or dict holding ⊥ iterates -- and prints
#: -- in the same order in every interpreter, whatever ``PYTHONHASHSEED``.
BOTTOM_HASH = 0x22A5


class _Bottom:
    """The paper's default value ``⊥`` ("I champion no value")."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __hash__(self) -> int:
        return BOTTOM_HASH

    def __reduce__(self):
        return (_Bottom, ())


BOT = _Bottom()

BINARY_VALUES = (0, 1)


def validate_proposal(value: Any) -> int:
    """Check that a proposed value is binary (the algorithms solve *binary* consensus)."""
    if value not in BINARY_VALUES:
        raise ValueError(f"proposals must be 0 or 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PhaseMessage:
    """The triple ``(r, ph, est)`` broadcast by the communication pattern.

    ``tag`` namespaces concurrent consensus instances (and distinguishes the
    algorithms), so several instances can share one network.  ``est`` is 0, 1
    or :data:`BOT`.
    """

    tag: str
    round_number: int
    phase: int
    est: Any


@dataclass(frozen=True)
class DecideMessage:
    """``DECIDE(v)``: broadcast just before deciding, and relayed on receipt.

    Prevents the deadlock in which every member of a cluster has decided (or
    crashed) and therefore no longer feeds the communication pattern of the
    processes still running.
    """

    tag: str
    value: int


@dataclass
class ProcessEnvironment:
    """Everything one algorithm instance needs about its process.

    ``memory`` is the shared memory of the process's cluster (``None`` for
    the pure message-passing baselines), and the coins are per-process /
    global randomness sources as defined in Section II-B.
    """

    pid: int
    proposal: int
    topology: ClusterTopology
    memory: Optional[ClusterSharedMemory] = None
    local_coin: Optional[LocalCoin] = None
    common_coin: Optional[CommonCoin] = None
    #: The process's :class:`~repro.core.pattern.InboxIndex`, created by its
    #: first ``msg_exchange`` and shared by every later one (all tags).
    _inbox: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.proposal = validate_proposal(self.proposal)
        if self.pid not in self.topology.process_ids():
            raise ValueError(f"process id {self.pid} not in topology {self.topology.describe()}")
        if self.memory is not None:
            self.memory.assert_member(self.pid)

    @property
    def cluster_index(self) -> int:
        return self.topology.cluster_index_of(self.pid)

    @property
    def cluster(self):
        """The paper's ``cluster(i)`` for this process."""
        return self.topology.cluster_of(self.pid)


class ConsensusProcess:
    """Base class of all per-process consensus algorithm instances.

    Subclasses implement :meth:`run` as a generator driven by the simulation
    kernel; the generator's return value is the decided value.
    """

    algorithm_name: str = "abstract"

    def __init__(self, env: ProcessEnvironment, tag: Optional[str] = None) -> None:
        self.env = env
        self.tag = tag if tag is not None else self.algorithm_name

    def run(self, ctx):  # pragma: no cover - interface
        """The process behaviour (a generator).  Must return the decision."""
        raise NotImplementedError

    def broadcast_decide(self, ctx, value: int):
        """Broadcast ``DECIDE(value)`` to every process, then return the value."""
        yield from ctx.broadcast(DecideMessage(tag=self.tag, value=value))
        return value

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pid={self.env.pid}, proposal={self.env.proposal})"
