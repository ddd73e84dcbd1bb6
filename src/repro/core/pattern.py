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

An exchange costs its votes.  The wait reads each mailbox entry once (see
:class:`InboxIndex`) and counts attribution units -- a cluster, or a sender
-- instead of building sets of processes; a completed exchange counts, per
value, the processes its votes stand for, which is everything the
algorithms read.  The outcome's ``supporters`` and ``heard`` sets are built
from the stored votes only if someone reads them.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..adversary.faults import TamperedPayload
from .base import BOT, DecideMessage, PhaseMessage, ProcessEnvironment


class ExchangeOutcome:
    """Result of one ``msg_exchange`` invocation.

    ``kind`` is ``"supporters"`` for a normal completion (a majority of
    processes heard from) or ``"decide"`` when a ``DECIDE`` message
    short-circuited the wait.

    An outcome is a value with the fields, constructor, ``==`` and ``repr``
    of a frozen dataclass over ``(kind, round_number, phase, supporters,
    heard, values_received, decide_value)``.  The exchange builds it from
    counts (see :func:`_counted_outcome`): it keeps its votes and, per
    value, how many processes support it, which is all
    :meth:`majority_value` reads.  :attr:`supporters` and :attr:`heard` are
    built from the votes the first time either is read, by the one
    attribution code :func:`scan_mailbox` uses, so their contents and
    iteration order do not depend on when (or whether) they are read.
    """

    __slots__ = (
        "kind",
        "round_number",
        "phase",
        "values_received",
        "decide_value",
        "_support",
        "_heard_count",
        "_votes",
        "_topology",
        "_expand_clusters",
        "_supporters",
        "_heard",
    )

    def __init__(
        self,
        kind: str,
        round_number: int,
        phase: int,
        supporters: Optional[Dict[Any, FrozenSet[int]]] = None,
        heard: FrozenSet[int] = frozenset(),
        values_received: FrozenSet[Any] = frozenset(),
        decide_value: Optional[int] = None,
    ) -> None:
        if supporters is None:
            supporters = {}
        self.kind = kind
        self.round_number = round_number
        self.phase = phase
        self.values_received = values_received
        self.decide_value = decide_value
        #: value -> how many processes support it (the size of its set).
        self._support = {value: len(pids) for value, pids in supporters.items()}
        self._heard_count = len(heard)
        self._votes = None
        self._supporters = supporters
        self._heard = heard

    @property
    def supporters(self) -> Dict[Any, FrozenSet[int]]:
        """Value -> the processes (after cluster attribution) supporting it."""
        if self._supporters is None:
            self._attribute()
        return self._supporters

    @property
    def heard(self) -> FrozenSet[int]:
        """Every process heard from, directly or by cluster attribution."""
        if self._supporters is None:
            self._attribute()
        return self._heard

    def _attribute(self) -> None:
        """Build :attr:`supporters` and :attr:`heard` from the stored votes."""
        self._supporters, self._heard = _attributed_sets(
            self._votes, self._topology, self._expand_clusters
        )
        self._votes = self._topology = None

    @property
    def is_decide(self) -> bool:
        return self.kind == "decide"

    def supporters_of(self, value: Any) -> FrozenSet[int]:
        """Processes (after cluster attribution) supporting ``value``."""
        return self.supporters.get(value, frozenset())

    def majority_value(self, topology) -> Optional[int]:
        """A binary value supported by a strict majority, if any.

        At most one such value can exist because two strict majorities always
        intersect (weak agreement WA1 of the paper).  Read from the counts:
        no set is built.
        """
        support = self._support
        for value in (0, 1):
            if topology.is_majority(support.get(value, 0)):
                return value
        return None

    def _fields(self) -> Tuple[Any, ...]:
        return (
            self.kind,
            self.round_number,
            self.phase,
            self.supporters,
            self.heard,
            self.values_received,
            self.decide_value,
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        # A step's resume value is its outcome, and traces record it by
        # repr: the dataclass's format, field for field.
        return (
            f"{self.__class__.__qualname__}(kind={self.kind!r}, "
            f"round_number={self.round_number!r}, phase={self.phase!r}, "
            f"supporters={self.supporters!r}, heard={self.heard!r}, "
            f"values_received={self.values_received!r}, decide_value={self.decide_value!r})"
        )


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
    not the process's own mailbox.  Both build their ``"supporters"``
    outcome with :func:`_counted_outcome`.
    """
    votes = []
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
        votes.append(message)
    return _counted_outcome(votes, env.topology, round_number, phase, expand_clusters)


def _counted_outcome(
    votes: Sequence[Any], topology, round_number: int, phase: int, expand_clusters: bool
) -> ExchangeOutcome:
    """The ``"supporters"`` outcome of one exchange's phase messages, in arrival order.

    One pass over the votes, counting: each vote stands for its sender's
    attribution unit (see
    :meth:`~repro.cluster.topology.ClusterTopology.attribution`), and a
    value's support is the summed weight of the distinct units that voted
    for it -- units are disjoint, so that is the size of its supporter set.
    ``values_received`` gets each value as it is first voted for: adding a
    value already present changes no set, so this is the set that adding
    every vote's value in arrival order grows.  The votes are kept (as a
    snapshot) for :func:`_attributed_sets`, which runs only if someone
    reads the sets.
    """
    unit_of, weight = topology.attribution(expand_clusters)
    units_by_value: Dict[Any, set] = {}
    for message in votes:
        est = message.payload.est
        units = units_by_value.get(est)
        if units is None:
            units = units_by_value[est] = set()
        units.add(unit_of[message.sender])
    values: set = set()
    support: Dict[Any, int] = {}
    for value, units in units_by_value.items():
        values.add(value)
        support[value] = sum(map(weight.__getitem__, units))
    heard = sum(map(weight.__getitem__, set().union(*units_by_value.values())))
    outcome = ExchangeOutcome.__new__(ExchangeOutcome)
    outcome.kind = "supporters"
    outcome.round_number = round_number
    outcome.phase = phase
    outcome.values_received = frozenset(values)
    outcome.decide_value = None
    outcome._support = support
    outcome._heard_count = heard
    outcome._votes = tuple(votes)
    outcome._topology = topology
    outcome._expand_clusters = expand_clusters
    outcome._supporters = outcome._heard = None
    return outcome


def _attributed_sets(
    votes: Sequence[Any], topology, expand_clusters: bool
) -> Tuple[Dict[Any, FrozenSet[int]], FrozenSet[int]]:
    """``(supporters, heard)`` of one exchange's votes, in arrival order.

    The one place the outcome's sets are built: each vote's sender stands
    for its whole cluster (or only itself without ``expand_clusters``), and
    the sets are grown vote by vote, so their iteration order is a function
    of the votes' order alone.
    """
    supporters: Dict[Any, set] = {}
    heard: set = set()
    cluster_of = topology.cluster_of
    for message in votes:
        est = message.payload.est
        if expand_clusters:
            members = cluster_of(message.sender)
        else:
            members = frozenset((message.sender,))
        pids = supporters.get(est)
        if pids is None:
            pids = supporters[est] = set()
        pids.update(members)
        heard.update(members)
    return {value: frozenset(pids) for value, pids in supporters.items()}, frozenset(heard)


class InboxIndex:
    """Classify-once index over one process's append-only mailbox.

    :func:`scan_mailbox` answers "what does this exchange see?" by reading
    the whole mailbox; asked on every delivery, that is quadratic in the
    messages a process receives.  The index reads each message once: a
    cursor marks the classified prefix, and every message past it is
    dropped (tampered, or not a protocol payload), recorded as its tag's
    ``DECIDE`` value (first one wins, as in a front-to-back scan), or
    appended to the bucket of its ``(tag, round, phase)`` in arrival order.
    The live exchange's wait moves the cursor and files every message
    itself (see :class:`_ExchangeWait`).  It stores references into the
    mailbox, never a copy of it.

    The index is a memo keyed on the *identity* of one list -- the first a
    wait predicate is evaluated on, which in a kernel run is the process's
    own mailbox.  Any other list is none of its business.
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

    def open(self, key: Tuple[str, int, int]) -> Optional[List[Any]]:
        """The live bucket of exchange ``key``; ``None`` if it already completed."""
        return self.buckets.setdefault(key, [])

    def close(self, key: Tuple[str, int, int]) -> None:
        """Forget exchange ``key``: its bucket is freed and stays closed."""
        self.buckets[key] = None


class _ExchangeWait:
    """The state of one ``msg_exchange`` call's wait; :meth:`poll` is the predicate.

    On the process's own mailbox it counts: each vote of its exchange that
    arrived since the last evaluation goes to the bucket, and the first
    vote from a new attribution unit (the sender's cluster, or the sender
    itself without ``expand_clusters``; see
    :meth:`~repro.cluster.topology.ClusterTopology.attribution`) adds that
    unit's weight to the number of processes heard.  Every other entry is
    filed in the same loop, as :class:`InboxIndex` describes.  Once the
    count is a strict majority, the outcome is counted from the bucket in
    arrival order by :func:`_counted_outcome` -- what :func:`scan_mailbox`
    builds from a full scan, so its sets (iteration order included), when
    read, are the ones a full scan would give.  A process blocks in one
    exchange at a time and :func:`msg_exchange` finishes each wait before
    the next begins, so the live wait is the only reader of its index's
    cursor.

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
        "mailbox",
        "bucket",
        "unit_of",
        "weight",
        "units",
        "heard",
        "majority",
    )

    def __init__(
        self, env: ProcessEnvironment, tag: str, round_number: int, phase: int, expand_clusters: bool
    ) -> None:
        inbox = env._inbox
        if inbox is None:
            inbox = env._inbox = InboxIndex()
        topology = env.topology
        self.env = env
        self.key = (tag, round_number, phase)
        self.expand_clusters = expand_clusters
        self.inbox = inbox
        # None for a key that was exchanged on before: its messages are no
        # longer indexed, so a re-run answers from full scans.
        self.bucket = bucket = inbox.open(self.key)
        #: The list the counting path reads: the index's, once known; None
        #: when the exchange answers from scans only.
        self.mailbox = inbox.mailbox if bucket is not None else None
        self.unit_of, self.weight = topology.attribution(expand_clusters)
        self.majority = topology.majority_threshold()
        #: The attribution units heard from, and how many processes they
        #: stand for.  Votes that arrived before this exchange started are
        #: in the bucket already.
        self.units: set = set()
        self.heard = 0
        if bucket:
            self.units = {self.unit_of[message.sender] for message in bucket}
            self.heard = sum(map(self.weight.__getitem__, self.units))

    def poll(self, mailbox: Sequence[Any]) -> Optional[ExchangeOutcome]:
        """The wait predicate: the outcome once the exchange is complete, else ``None``."""
        if mailbox is not self.mailbox:
            if self.bucket is None or not self.inbox.tracks(mailbox):
                return self._scan(mailbox)
            self.mailbox = mailbox  # the first evaluation of the process's first exchange
        inbox = self.inbox
        cursor = inbox.cursor
        end = len(mailbox)
        tag, round_number, phase = self.key
        decided = inbox.decided
        if cursor < end:
            inbox.cursor = end
            bucket = self.bucket
            buckets = inbox.buckets
            unit_of = self.unit_of
            units = self.units
            heard = self.heard
            while cursor < end:
                message = mailbox[cursor]
                cursor += 1
                payload = message.payload
                if isinstance(payload, PhaseMessage):
                    if (
                        payload.round_number == round_number
                        and payload.phase == phase
                        and payload.tag == tag
                    ):
                        bucket.append(message)
                        unit = unit_of[message.sender]
                        if unit not in units:
                            units.add(unit)
                            heard += self.weight[unit]
                    else:
                        # Another exchange's vote: kept for it in arrival
                        # order, or dropped if it already completed.
                        key = (payload.tag, payload.round_number, payload.phase)
                        other = buckets.get(key)
                        if other is not None:
                            other.append(message)
                        elif key not in buckets:
                            buckets[key] = [message]
                elif isinstance(payload, DecideMessage):
                    decided.setdefault(payload.tag, payload.value)
                # Anything else -- a TamperedPayload (its signature check
                # fails, as in scan_mailbox) or no protocol payload -- is
                # dropped.
            self.heard = heard
        if tag in decided:
            return ExchangeOutcome(
                kind="decide",
                round_number=round_number,
                phase=phase,
                decide_value=decided[tag],
            )
        if self.heard < self.majority:
            return None
        return _counted_outcome(
            self.bucket, self.env.topology, round_number, phase, self.expand_clusters
        )

    def _scan(self, mailbox: Sequence[Any]) -> Optional[ExchangeOutcome]:
        """The answer for any list but the index's: a full scan, majority-tested."""
        outcome = scan_mailbox(mailbox, self.env, *self.key, self.expand_clusters)
        if outcome.is_decide or self.env.topology.is_majority(outcome._heard_count):
            return outcome
        return None

    def finish(self) -> None:
        """Release the exchange's index state once its wait has completed."""
        if self.bucket is not None:
            self.inbox.close(self.key)
            self.bucket = None
            self.mailbox = None


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
    outcome = yield from ctx.wait_until(wait.poll)
    wait.finish()
    return outcome
