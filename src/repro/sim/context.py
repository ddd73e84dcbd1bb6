"""The API that algorithm code uses to interact with the simulated world.

Algorithms are written as Python generators.  Every interaction with the
environment -- sending a message, waiting for messages, executing a
shared-memory primitive -- is expressed by ``yield``-ing an *effect* object
through one of the :class:`ProcessContext` helper generators, e.g.::

    value = yield from ctx.sm_op(register.compare_and_swap, expected, new)
    yield from ctx.broadcast(payload)
    result = yield from ctx.wait_until(predicate)

The kernel interprets each effect as one atomic step of the process, charges
the appropriate virtual-time cost, and resumes the generator with the step's
result.  This mirrors the paper's model of sequential processes executing
atomic steps interleaved by an asynchronous adversary.

Effects are allocated on the kernel's hot path, so they are plain
``__slots__`` classes rather than dataclasses: construction is a couple of
slot stores and no per-instance dict exists.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Optional, Sequence, Tuple


class Effect:
    """Base class of all effects yielded by algorithm generators."""

    __slots__ = ()


class SendEffect(Effect):
    """Send ``payload`` to process ``dest`` over the asynchronous network."""

    __slots__ = ("dest", "payload")

    def __init__(self, dest: int, payload: Any) -> None:
        self.dest = dest
        self.payload = payload

    def __repr__(self) -> str:
        return f"SendEffect(dest={self.dest!r}, payload={self.payload!r})"


class BroadcastEffect(Effect):
    """Send ``payload`` to each process of ``dests``, in order.

    Not atomic: the kernel turns it into one send per process step, exactly
    as if the process had yielded one :class:`SendEffect` per destination,
    and resumes the generator once, after the last one.  A crash (or a
    transient outage) part-way therefore reaches a prefix of ``dests`` only.
    ``dests`` must not be empty.
    """

    __slots__ = ("dests", "payload")

    def __init__(self, dests: Sequence[int], payload: Any) -> None:
        self.dests = dests
        self.payload = payload

    def __repr__(self) -> str:
        return f"BroadcastEffect(dests={self.dests!r}, payload={self.payload!r})"


class WaitEffect(Effect):
    """Block until ``predicate(mailbox)`` returns a non-``None`` value.

    The predicate receives the process's full mailbox (a list of
    :class:`~repro.network.message.Message` objects, oldest first) and must
    return ``None`` while unsatisfied.  Its first non-``None`` return value
    becomes the result of the wait.

    The predicate contract:

    * The mailbox is **append-only**: the kernel hands every evaluation the
      same list object, and only ever appends to it.
    * The result must **depend only on the contents of the list it is
      given**.  The kernel re-evaluates a predicate on every delivery to
      the blocked process, and observers (the adaptive adversary's
      ``delay-pivotal`` probe) evaluate it on *other* lists, such as
      ``list(mailbox) + [message]``; no evaluation may change what a later
      one returns.
    * Within that, a predicate **may memoise on the identity of the list**
      -- remember how far into one particular list object it has read and
      pick up from there -- provided any other list is answered from its
      contents alone.  ``msg_exchange`` does exactly this (see
      :class:`repro.core.pattern.InboxIndex`).
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[Sequence[Any]], Any]) -> None:
        self.predicate = predicate

    def __repr__(self) -> str:
        return f"WaitEffect(predicate={self.predicate!r})"


class SharedMemEffect(Effect):
    """Execute one linearizable shared-memory primitive atomically."""

    __slots__ = ("operation", "args")

    def __init__(self, operation: Callable[..., Any], args: Tuple[Any, ...] = ()) -> None:
        self.operation = operation
        self.args = args

    def __repr__(self) -> str:
        return f"SharedMemEffect(operation={self.operation!r}, args={self.args!r})"


class LocalEffect(Effect):
    """A local computation step with no environment interaction."""

    __slots__ = ("duration",)

    def __init__(self, duration: Optional[float] = None) -> None:
        self.duration = duration

    def __repr__(self) -> str:
        return f"LocalEffect(duration={self.duration!r})"


class RoundLimitExceeded(Exception):
    """Raised by :meth:`ProcessContext.mark_round` past the configured cap.

    Randomized consensus terminates with probability 1 but any individual
    execution may be arbitrarily long; the cap turns "still flipping coins"
    into an explicit, detectable non-termination outcome (used by the
    indulgence experiments).
    """

    def __init__(self, pid: int, round_number: int, limit: int) -> None:
        super().__init__(
            f"process {pid} entered round {round_number}, exceeding the cap of {limit}"
        )
        self.pid = pid
        self.round_number = round_number
        self.limit = limit


class ProcessStats:
    """Per-process counters maintained by the kernel."""

    __slots__ = ("steps", "messages_sent", "sm_ops", "waits", "rounds", "coin_flips")

    def __init__(
        self,
        steps: int = 0,
        messages_sent: int = 0,
        sm_ops: int = 0,
        waits: int = 0,
        rounds: int = 0,
        coin_flips: int = 0,
    ) -> None:
        self.steps = steps
        self.messages_sent = messages_sent
        self.sm_ops = sm_ops
        self.waits = waits
        self.rounds = rounds
        self.coin_flips = coin_flips

    def __getstate__(self):
        """Pickle support: the counters by name (``__slots__`` has no ``__dict__``)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ProcessStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"ProcessStats({parts})"


class ProcessContext:
    """Handle given to each simulated process.

    The context exposes the process identity, virtual time, per-process
    random stream, and the effect helpers.  Algorithms should interact with
    the world exclusively through this object (plus the shared-memory and
    coin objects handed to them by the harness, whose primitive operations
    are always routed back through :meth:`sm_op`).

    Ownership runs one way -- kernel -> processes -> contexts -- and the
    context points back at its kernel *weakly*, so a finished run is acyclic
    and frees itself by reference counting the moment the kernel is dropped.
    A context is therefore valid only while its kernel is alive: every
    method but the bare counters raises :class:`ReferenceError` afterwards.
    :attr:`stats` is a plain object the run's result keeps alive by itself.
    """

    __slots__ = ("pid", "_kernel", "stats")

    def __init__(self, pid: int, kernel: "SimulationKernel") -> None:  # noqa: F821
        self.pid = pid
        self._kernel = weakref.proxy(kernel)
        self.stats = ProcessStats()

    # ------------------------------------------------------------------ time
    def now(self) -> float:
        """Current virtual time."""
        return self._kernel.now

    def random(self):
        """The process-local random stream (used for local coins)."""
        return self._kernel.rng.stream("process", self.pid)

    # --------------------------------------------------------------- effects
    def send(self, dest: int, payload: Any):
        """Send ``payload`` to ``dest``; completes after one local step."""
        self.stats.messages_sent += 1
        yield SendEffect(dest=dest, payload=payload)

    def broadcast(self, payload: Any, include_self: bool = True):
        """The paper's ``broadcast`` macro: send to every process in turn.

        The macro is intentionally *not* atomic: the one
        :class:`BroadcastEffect` it yields is carried out by the kernel as
        one send per destination, each its own process step with the
        accounting of a :meth:`send`, so a crash occurring part-way through
        delivers the message to an arbitrary prefix of the destinations only
        -- exactly the unreliable broadcast of Section II-A.  The generator
        is resumed once, after the last destination.
        """
        dests = self._kernel.process_ids()
        if not include_self:
            dests.remove(self.pid)
        if dests:
            yield BroadcastEffect(dests, payload)

    def wait_until(self, predicate: Callable[[Sequence[Any]], Any]):
        """Block until ``predicate(mailbox)`` is non-``None``; return it.

        ``predicate`` is bound by the contract on :class:`WaitEffect`: the
        mailbox is append-only, the result depends only on the list's
        contents, and memoising on the list's identity is allowed.
        """
        self.stats.waits += 1
        result = yield WaitEffect(predicate=predicate)
        return result

    def sm_op(self, operation: Callable[..., Any], *args: Any):
        """Execute one shared-memory primitive as an atomic step."""
        self.stats.sm_ops += 1
        result = yield SharedMemEffect(operation=operation, args=args)
        return result

    def local_step(self, duration: Optional[float] = None):
        """Spend one local computation step (optionally of a given length)."""
        yield LocalEffect(duration=duration)

    # ------------------------------------------------------------ accounting
    def mark_round(self, round_number: int) -> None:
        """Record that the process entered ``round_number``.

        When tracing is on, a ``round`` span marker lands in the trace with
        the round number as structured data, so a dumped execution can be
        sliced per round.  Raises :class:`RoundLimitExceeded` when the
        simulation configuration bounds the number of rounds and the bound
        is exceeded (the marker is recorded first: the over-limit round is
        part of the execution's observable history).
        """
        self.stats.rounds = max(self.stats.rounds, round_number)
        kernel = self._kernel
        if kernel.trace.enabled:
            kernel.trace.record(
                kernel.now,
                "round",
                self.pid,
                f"entered round {round_number}",
                {"round": round_number},
            )
        limit = kernel.config.max_rounds
        if limit is not None and round_number > limit:
            raise RoundLimitExceeded(self.pid, round_number, limit)

    def mark_phase(self, name: str) -> None:
        """Record a ``phase`` span marker (e.g. ``propose``/``decide``).

        Purely observational: phases carry no accounting, they only structure
        a dumped trace so post-processing can attribute time and messages to
        algorithm phases within a round.
        """
        kernel = self._kernel
        if kernel.trace.enabled:
            kernel.trace.record(
                kernel.now, "phase", self.pid, f"entered phase {name!r}", {"phase": name}
            )

    def count_coin_flip(self) -> None:
        """Record one coin invocation (local or common) by this process."""
        self.stats.coin_flips += 1

    def log(self, message: str) -> None:
        """Record a free-form annotation in the simulation trace at ``now``."""
        self._kernel.trace.annotate(self.pid, message, time=self._kernel.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessContext(pid={self.pid}, t={self.now():.4f})"
