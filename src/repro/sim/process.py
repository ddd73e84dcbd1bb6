"""Simulated process bookkeeping."""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, Tuple

from .context import ProcessContext


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    READY = "ready"
    BLOCKED = "blocked"
    CRASHED = "crashed"
    DECIDED = "decided"
    HALTED = "halted"

    def is_terminal(self) -> bool:
        """Whether a process in this state can take no further step."""
        return self in (ProcessState.CRASHED, ProcessState.DECIDED, ProcessState.HALTED)


class SimProcess:
    """Kernel-side record of one simulated process.

    The algorithm itself lives in ``generator`` (created by calling the
    algorithm factory with the process context); the kernel drives it by
    sending step results into it and interpreting the effects it yields.

    A ``__slots__`` class rather than a dataclass: the kernel touches these
    records on every event, and slot access skips the per-instance dict.
    """

    __slots__ = (
        "pid",
        "context",
        "stats",
        "factory",
        "generator",
        "state",
        "mailbox",
        "wait_predicate",
        "broadcast",
        "decision",
        "decision_time",
        "crash_time",
        "halt_reason",
        "started",
        "paused",
        "paused_backlog",
    )

    def __init__(
        self,
        pid: int,
        context: ProcessContext,
        factory: Callable[[ProcessContext], Any],
        generator: Any = None,
        state: ProcessState = ProcessState.READY,
        mailbox: Optional[List[Any]] = None,
        wait_predicate: Optional[Callable[[List[Any]], Any]] = None,
        decision: Any = None,
        decision_time: Optional[float] = None,
        crash_time: Optional[float] = None,
        halt_reason: Optional[str] = None,
        started: bool = False,
        paused: bool = False,
        paused_backlog: Optional[List[Any]] = None,
    ) -> None:
        self.pid = pid
        self.context = context
        #: Direct reference to ``context.stats`` so the kernel's per-event
        #: counter bumps skip one attribute hop.
        self.stats = context.stats if context is not None else None
        self.factory = factory
        self.generator = generator
        self.state = state
        self.mailbox = [] if mailbox is None else mailbox
        self.wait_predicate = wait_predicate
        #: The broadcast in progress, as ``(destinations still owed in
        #: reverse order, payload)``, or ``None``: while set, each step of
        #: the process is the send to the next destination (see
        #: :class:`~repro.sim.context.BroadcastEffect`).
        self.broadcast: Optional[Tuple[List[int], Any]] = None
        self.decision = decision
        self.decision_time = decision_time
        self.crash_time = crash_time
        self.halt_reason = halt_reason
        self.started = started
        #: Transient-outage flag (see :class:`~repro.sim.events.ProcessPause`):
        #: while paused, step and delivery events are buffered in
        #: ``paused_backlog`` and replayed at recovery.
        self.paused = paused
        self.paused_backlog = [] if paused_backlog is None else paused_backlog

    def start(self) -> None:
        """Instantiate the algorithm generator (first activation)."""
        if self.started:
            raise RuntimeError(f"process {self.pid} already started")
        self.generator = self.factory(self.context)
        self.started = True

    @property
    def is_correct(self) -> bool:
        """A process is *correct* in a run iff it never crashes."""
        return self.state is not ProcessState.CRASHED

    @property
    def has_decided(self) -> bool:
        """Whether the process terminated by deciding a value."""
        return self.state is ProcessState.DECIDED

    def deliver(self, message: Any) -> None:
        """Append a message to the mailbox (messages are never removed)."""
        self.mailbox.append(message)

    def check_wait(self) -> Any:
        """Evaluate the pending wait predicate against the mailbox.

        Returns the predicate result (non-``None`` when satisfied) or
        ``None`` when unsatisfied or when the process is not blocked.
        """
        if self.state is not ProcessState.BLOCKED or self.wait_predicate is None:
            return None
        return self.wait_predicate(self.mailbox)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SimProcess(pid={self.pid}, state={self.state.value}, "
            f"decision={self.decision!r}, mailbox={len(self.mailbox)})"
        )
