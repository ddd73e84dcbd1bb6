"""Algorithm 1: the ``msg_exchange`` all-to-all communication pattern.

The pattern broadcasts ``(r, ph, est)`` and then waits until it has heard,
*directly or by cluster attribution*, from a strict majority of the
processes.  Cluster attribution is the heart of the paper: when a message
``(r, ph, v)`` from process ``p_j ∈ P[x]`` is received, it is accounted as if
the very same message had been received from every member of ``P[x]`` --
which is sound because the per-cluster consensus objects guarantee that no
two members of a cluster broadcast different values in the same phase
("one for all and all for one").

The pattern also watches for ``DECIDE`` messages so that a process whose
peers have already decided (and stopped sending phase messages) cannot block
forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..adversary.faults import TamperedPayload
from .base import BOT, DecideMessage, PhaseMessage, ProcessEnvironment


@dataclass(frozen=True)
class ExchangeOutcome:
    """Result of one ``msg_exchange`` invocation.

    ``kind`` is ``"supporters"`` for a normal completion (a majority of
    processes heard from) or ``"decide"`` when a ``DECIDE`` message
    short-circuited the wait.
    """

    kind: str
    round_number: int
    phase: int
    supporters: Dict[Any, FrozenSet[int]] = field(default_factory=dict)
    heard: FrozenSet[int] = frozenset()
    values_received: FrozenSet[Any] = frozenset()
    decide_value: Optional[int] = None

    @property
    def is_decide(self) -> bool:
        return self.kind == "decide"

    def supporters_of(self, value: Any) -> FrozenSet[int]:
        """Processes (after cluster attribution) supporting ``value``."""
        return self.supporters.get(value, frozenset())

    def majority_value(self, topology) -> Optional[int]:
        """A binary value supported by a strict majority, if any.

        At most one such value can exist because two strict majorities always
        intersect (weak agreement WA1 of the paper).
        """
        for value in (0, 1):
            if topology.is_majority(len(self.supporters_of(value))):
                return value
        return None


def scan_mailbox(
    mailbox: Sequence[Any],
    env: ProcessEnvironment,
    tag: str,
    round_number: int,
    phase: int,
    expand_clusters: bool = True,
) -> ExchangeOutcome:
    """Build the (partial) exchange outcome visible in ``mailbox``.

    With ``expand_clusters`` (the default) a message from ``p_j`` is
    attributed to every member of ``cluster(j)`` -- the paper's rule, which
    is only sound when cluster consensus makes clusters univalent per phase.
    The pure message-passing baselines pass ``False`` to attribute messages
    to their senders only.

    This is the pure reference implementation of the attribution logic: a
    function of the list's contents only, exposed so that tests and the
    property-based suite can exercise it on hand-built mailboxes.
    :func:`msg_exchange` answers the same question incrementally (see
    :class:`InboxIndex`) and falls back to this scan for any list that is
    not the process's own mailbox.
    """
    topology = env.topology
    supporters: Dict[Any, set] = {}
    heard: set = set()
    values: set = set()
    for message in mailbox:
        payload = message.payload
        # Authentication modelling: a payload a corruption fault mutated in
        # transit arrives wrapped in TamperedPayload when messages are
        # signed.  The signature check fails, so the receiver discards the
        # message -- an authenticated-channel Byzantine mutation degrades to
        # an omission and never reaches the protocol logic.
        if isinstance(payload, TamperedPayload):
            continue
        if isinstance(payload, DecideMessage) and payload.tag == tag:
            return ExchangeOutcome(
                kind="decide",
                round_number=round_number,
                phase=phase,
                decide_value=payload.value,
            )
        if not isinstance(payload, PhaseMessage):
            continue
        if payload.tag != tag or payload.round_number != round_number or payload.phase != phase:
            continue
        if expand_clusters:
            members = topology.cluster_of(message.sender)
        else:
            members = frozenset((message.sender,))
        supporters.setdefault(payload.est, set()).update(members)
        heard.update(members)
        values.add(payload.est)
    return ExchangeOutcome(
        kind="supporters",
        round_number=round_number,
        phase=phase,
        supporters={value: frozenset(pids) for value, pids in supporters.items()},
        heard=frozenset(heard),
        values_received=frozenset(values),
    )


class InboxIndex:
    """Classify-once index over one process's append-only mailbox.

    :func:`scan_mailbox` answers "what does this exchange see?" by reading
    the whole mailbox; asked on every delivery, that is quadratic in the
    messages a process receives.  The index reads each message once: a
    cursor marks the classified prefix, and every newly appended message is
    dropped (tampered, or not a protocol payload), recorded as its tag's
    ``DECIDE`` value (first one wins, as in a front-to-back scan), or
    appended to the bucket of its ``(tag, round, phase)`` in arrival order.
    It stores references into the mailbox, never a copy of it.

    The index is a memo keyed on the *identity* of one list -- the first a
    wait predicate is evaluated on, which in a kernel run is the process's
    own mailbox.  Any other list is none of its business (see
    :class:`_ExchangeWait`).
    """

    __slots__ = ("mailbox", "cursor", "decided", "buckets")

    def __init__(self) -> None:
        self.mailbox: Optional[List[Any]] = None
        self.cursor = 0
        #: tag -> value of the first ``DECIDE`` classified for that tag.
        self.decided: Dict[str, int] = {}
        #: ``(tag, round, phase)`` -> that exchange's phase messages so far;
        #: ``None`` once the exchange completed, so late messages for it are
        #: dropped instead of accumulating.
        self.buckets: Dict[Tuple[str, int, int], Optional[List[Any]]] = {}

    def tracks(self, mailbox: Sequence[Any]) -> bool:
        """Whether ``mailbox`` is the list this index memoises (the first it is shown)."""
        if self.mailbox is None:
            self.mailbox = mailbox
        return mailbox is self.mailbox

    def advance(self) -> None:
        """Classify the messages appended since the previous call."""
        mailbox = self.mailbox
        end = len(mailbox)
        if self.cursor == end:
            return
        buckets = self.buckets
        for message in mailbox[self.cursor : end]:
            payload = message.payload
            # Same authentication modelling as scan_mailbox: a tampered
            # payload fails its signature check and is discarded.
            if isinstance(payload, TamperedPayload):
                continue
            if isinstance(payload, PhaseMessage):
                key = (payload.tag, payload.round_number, payload.phase)
                bucket = buckets.get(key)
                if bucket is not None:
                    bucket.append(message)
                elif key not in buckets:
                    buckets[key] = [message]
            elif isinstance(payload, DecideMessage):
                self.decided.setdefault(payload.tag, payload.value)
        self.cursor = end

    def open(self, key: Tuple[str, int, int]) -> Optional[List[Any]]:
        """The live bucket of exchange ``key``; ``None`` if it already completed."""
        return self.buckets.setdefault(key, [])

    def close(self, key: Tuple[str, int, int]) -> None:
        """Forget exchange ``key``: its bucket is freed and stays closed."""
        self.buckets[key] = None


class _ExchangeWait:
    """The wait predicate of one ``msg_exchange`` call.

    On the process's own mailbox it is incremental: it consumes only the
    entries its bucket gained since the last evaluation and applies cluster
    attribution to them in arrival order -- the very sequence of set
    operations :func:`scan_mailbox` performs, so the outcome (iteration order
    of its sets included) is the one a full scan would build.

    It stays observationally pure, as the wait-predicate contract demands
    (see :class:`~repro.sim.context.WaitEffect`): evaluated on any other
    list -- the adaptive adversary probes ``list(mailbox) + [message]`` --
    or after the exchange finished, it answers from a plain
    :func:`scan_mailbox` of that list and touches no memoised state.
    """

    __slots__ = (
        "env",
        "key",
        "expand_clusters",
        "inbox",
        "bucket",
        "consumed",
        "supporters",
        "heard",
        "values",
    )

    def __init__(
        self, env: ProcessEnvironment, tag: str, round_number: int, phase: int, expand_clusters: bool
    ) -> None:
        inbox = env._inbox
        if inbox is None:
            inbox = env._inbox = InboxIndex()
        self.env = env
        self.key = (tag, round_number, phase)
        self.expand_clusters = expand_clusters
        self.inbox = inbox
        # None for a key that was exchanged on before: its messages are no
        # longer indexed, so a re-run answers from full scans.
        self.bucket = inbox.open(self.key)
        self.consumed = 0
        self.supporters: Dict[Any, set] = {}
        self.heard: set = set()
        self.values: set = set()

    def __call__(self, mailbox: Sequence[Any]) -> Optional[ExchangeOutcome]:
        bucket = self.bucket
        inbox = self.inbox
        tag, round_number, phase = self.key
        topology = self.env.topology
        if bucket is None or not inbox.tracks(mailbox):
            outcome = scan_mailbox(
                mailbox, self.env, tag, round_number, phase, self.expand_clusters
            )
            if outcome.is_decide or topology.is_majority(len(outcome.heard)):
                return outcome
            return None
        inbox.advance()
        if tag in inbox.decided:
            return ExchangeOutcome(
                kind="decide",
                round_number=round_number,
                phase=phase,
                decide_value=inbox.decided[tag],
            )
        heard = self.heard
        if self.consumed < len(bucket):
            supporters = self.supporters
            values = self.values
            expand_clusters = self.expand_clusters
            for message in bucket[self.consumed :]:
                est = message.payload.est
                if expand_clusters:
                    members = topology.cluster_of(message.sender)
                else:
                    members = frozenset((message.sender,))
                supporters.setdefault(est, set()).update(members)
                heard.update(members)
                values.add(est)
            self.consumed = len(bucket)
        if not topology.is_majority(len(heard)):
            return None
        return ExchangeOutcome(
            kind="supporters",
            round_number=round_number,
            phase=phase,
            supporters={value: frozenset(pids) for value, pids in self.supporters.items()},
            heard=frozenset(heard),
            values_received=frozenset(self.values),
        )

    def finish(self) -> None:
        """Release the exchange's index state once its wait has completed."""
        if self.bucket is not None:
            self.inbox.close(self.key)
            self.bucket = None


def msg_exchange(
    ctx,
    env: ProcessEnvironment,
    round_number: int,
    phase: int,
    est: Any,
    tag: str,
    expand_clusters: bool = True,
):
    """The paper's ``msg_exchange(r, ph, est)`` (a generator).

    Broadcasts the phase message, then blocks until either a ``DECIDE``
    message for this instance arrives or the processes heard from (with
    cluster attribution, unless ``expand_clusters`` is ``False``) form a
    strict majority.  Returns the corresponding :class:`ExchangeOutcome`.

    The wait costs O(messages received): the predicate reads each mailbox
    entry once through the process's :class:`InboxIndex` and returns exactly
    what :func:`scan_mailbox` plus the majority test would.
    """
    if est not in (0, 1, BOT):
        raise ValueError(f"est must be 0, 1 or ⊥, got {est!r}")
    yield from ctx.broadcast(PhaseMessage(tag=tag, round_number=round_number, phase=phase, est=est))

    wait = _ExchangeWait(env, tag, round_number, phase, expand_clusters)
    outcome = yield from ctx.wait_until(wait)
    wait.finish()
    return outcome
