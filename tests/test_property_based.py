"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools
import random
import re
import shutil
import tempfile
from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.helpers import SyncContext, drive, make_message

from repro.adversary.faults import TamperedPayload
from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.core.base import BOT, DecideMessage, PhaseMessage, ProcessEnvironment
from repro.core.pattern import msg_exchange, scan_mailbox
from repro.experiments.common import default_seeds
from repro.harness.config import ExperimentConfig
from repro.harness.coordinator import run_work_stealing
from repro.harness.distributed import (
    ManifestError,
    ShardSpec,
    checkpoint_path,
    plan_sweep,
    run_plan,
    run_shard,
)
from repro.harness.runner import run_consensus
from repro.harness.stats import percentile, summarize
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.network.message import Message
from repro.network.transport import Network
from repro.obs.merge import IncrementalMerger
from repro.sharedmem.consensus_object import CASConsensusObject, LLSCConsensusObject
from repro.sim import kernel as kernel_module
from repro.sim.config import SimConfig
from repro.sim.events import EventKind
from repro.sim.kernel import _MSG_ID_MASK, SimulationKernel
from repro.sim.rng import RandomSource


# ----------------------------------------------------------------------- helpers
@st.composite
def partitions(draw, max_n=12):
    """A random partition of 0..n-1 into non-empty clusters."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pids = list(range(n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    rng.shuffle(pids)
    clusters = []
    index = 0
    while index < n:
        size = rng.randint(1, n - index)
        clusters.append(pids[index : index + size])
        index += size
    return clusters


# --------------------------------------------------------------------- topology
@given(partitions())
@settings(max_examples=60, deadline=None)
def test_topology_partition_invariants(clusters):
    topology = ClusterTopology(clusters)
    # Every process belongs to exactly one cluster and cluster_of round-trips.
    seen = set()
    for index, members in enumerate(topology.clusters):
        for pid in members:
            assert topology.cluster_index_of(pid) == index
            assert pid not in seen
            seen.add(pid)
    assert seen == set(range(topology.n))
    assert sum(topology.cluster_sizes) == topology.n
    # A strict majority never fits twice in n processes.
    threshold = topology.majority_threshold()
    assert topology.is_majority(threshold)
    assert not topology.is_majority(threshold - 1)
    assert 2 * threshold > topology.n


@given(partitions(), st.sets(st.integers(min_value=0, max_value=11)))
@settings(max_examples=60, deadline=None)
def test_termination_condition_monotone_in_correct_set(clusters, extra):
    topology = ClusterTopology(clusters)
    correct = {pid for pid in extra if pid < topology.n}
    holds = topology.termination_condition_holds(correct)
    # Adding more correct processes can only help.
    for pid in range(topology.n):
        if topology.termination_condition_holds(correct | {pid}) is False:
            assert not holds or pid in correct or True
    assert topology.termination_condition_holds(set(range(topology.n))) or topology.n == 0
    if holds:
        assert topology.termination_condition_holds(set(range(topology.n)))
    if not correct:
        assert not holds


@given(partitions())
@settings(max_examples=40, deadline=None)
def test_majority_cluster_condition_equivalence(clusters):
    topology = ClusterTopology(clusters)
    index = topology.majority_cluster_index()
    if index is not None:
        # One correct process inside the majority cluster suffices.
        survivor = next(iter(topology.cluster_members(index)))
        assert topology.termination_condition_holds({survivor})


# --------------------------------------------------------------- failure patterns
@given(
    partitions(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_violate_termination_condition_always_succeeds(clusters, seed):
    topology = ClusterTopology(clusters)
    pattern = FailurePattern.violate_termination_condition(topology)
    assert not pattern.allows_termination(topology)
    # And the pattern never crashes a process twice or outside the range.
    assert all(0 <= pid < topology.n for pid in pattern.crashed)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30), st.integers())
@settings(max_examples=50, deadline=None)
def test_random_crash_pattern_counts(n, count, seed):
    count = min(count, n)
    pattern = FailurePattern.random_crashes(random.Random(seed), n, count)
    assert pattern.crash_count() == count
    assert pattern.correct(n) == set(range(n)) - pattern.crashed


# ---------------------------------------------------------------- pattern scanning
@given(
    partitions(max_n=10),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from([0, 1, "BOT"])),
        max_size=25,
    ),
)
@settings(max_examples=60, deadline=None)
def test_scan_mailbox_supporters_are_unions_of_clusters(clusters, raw_messages):
    topology = ClusterTopology(clusters)
    env = ProcessEnvironment(pid=0, proposal=0, topology=topology)
    mailbox = []
    senders_seen = set()
    cluster_value = {}
    for sender, value in raw_messages:
        if sender >= topology.n or sender in senders_seen:
            # In the crash-failure model a process broadcasts a single value
            # per (round, phase); keep only its first message.
            continue
        senders_seen.add(sender)
        est = BOT if value == "BOT" else value
        # Cluster consensus makes clusters univalent per phase: members of an
        # already-heard cluster repeat the cluster's value.
        cluster_index = topology.cluster_index_of(sender)
        est = cluster_value.setdefault(cluster_index, est)
        mailbox.append(make_message(sender, PhaseMessage(tag="t", round_number=1, phase=1, est=est)))
    outcome = scan_mailbox(mailbox, env, "t", 1, 1)
    # Heard set is exactly the union of the senders' clusters.
    expected_heard = set()
    for message in mailbox:
        expected_heard |= topology.cluster_of(message.sender)
    assert outcome.heard == frozenset(expected_heard)
    # Supporters of every value are unions of whole clusters.
    for value, supporters in outcome.supporters.items():
        for pid in supporters:
            assert topology.cluster_of(pid) <= supporters
    # A value's supporters never exceed the heard set.
    for supporters in outcome.supporters.values():
        assert supporters <= outcome.heard
    # At most one binary value can hold a strict majority.
    majorities = [v for v in (0, 1) if topology.is_majority(len(outcome.supporters_of(v)))]
    assert len(majorities) <= 1


# ------------------------------------------------- incremental msg_exchange wait
class _PredicateCapture:
    """A context whose ``wait_until`` hands the predicate to the test."""

    def broadcast(self, payload):
        return
        yield  # pragma: no cover - makes this a generator function

    def wait_until(self, predicate):
        result = yield predicate
        return result


#: The exchanges one process runs, in protocol order, on tag ``"t"``.
_EXCHANGES = [("t", r, ph) for r in (1, 2, 3) for ph in (1, 2)]
#: What a delivery carries, relative to the exchange that is live when it
#: arrives (weighted: mostly votes of the live, next and previous exchange).
_KINDS = st.sampled_from(
    ["live"] * 5
    + ["early"] * 3
    + ["late"] * 3
    + ["foreign-tag", "foreign-decide", "tampered", "junk", "decide"]
)
_DELIVERY = st.tuples(st.integers(min_value=0, max_value=9), _KINDS, st.sampled_from([0, 1, BOT]))
#: (delivery, probe before it?, the probe's extra message, quiet?) -- a quiet
#: delivery lands while the process is not blocked, so the kernel evaluates
#: nothing until a later one.
_DELIVERIES = st.lists(st.tuples(_DELIVERY, st.booleans(), _DELIVERY, st.booleans()), max_size=40)


def _payload(kind, est, position):
    """The payload of a ``kind`` delivery while ``_EXCHANGES[position]`` is live."""
    bit = est if est in (0, 1) else 0
    if kind == "junk":
        return "not a protocol payload"
    if kind == "decide":
        return DecideMessage(tag="t", value=bit)
    if kind == "foreign-decide":
        return DecideMessage(tag="other", value=bit)
    if kind == "early":
        position = min(position + 1, len(_EXCHANGES) - 1)
    elif kind == "late":
        position = max(position - 1, 0)
    tag, round_number, phase = _EXCHANGES[position]
    if kind == "foreign-tag":
        tag = "other"
    vote = PhaseMessage(tag=tag, round_number=round_number, phase=phase, est=est)
    if kind == "tampered":
        # A corrupted vote, or (on ⊥) a corrupted DECIDE: both must vanish.
        original = vote if est is not BOT else DecideMessage(tag="t", value=1)
        return TamperedPayload(original=original, mutated=original)
    return vote


def _assert_same_answer(got, expected, topology):
    """``==``, ``repr``, the majority and the iteration order of every set.

    A resume value's ``repr`` lands in traces, so it is pinned byte for byte;
    the majority is recomputed from ``expected``'s sets, whatever ``got``
    reads it from.
    """
    assert got == expected
    assert repr(got) == repr(expected)
    if expected is None:
        return
    majorities = [v for v in (0, 1) if topology.is_majority(len(expected.supporters_of(v)))]
    assert got.majority_value(topology) == (majorities[0] if majorities else None)
    assert list(got.supporters) == list(expected.supporters)
    for value, pids in expected.supporters.items():
        assert list(got.supporters[value]) == list(pids)
    assert list(got.heard) == list(expected.heard)
    assert list(got.values_received) == list(expected.values_received)


@given(partitions(max_n=10), st.booleans(), _DELIVERIES)
# Two messages landing between evaluations: the first DECIDE wins, and votes
# are attributed in arrival order (the outcome's dict order shows it).
@example(
    [[0], [1], [2]],
    True,
    [((0, "decide", 0), False, (0, "junk", 0), True), ((1, "decide", 1), False, (0, "junk", 0), False)],
)
@example(
    [[0], [1], [2]],
    False,
    [((0, "live", 1), False, (0, "junk", 0), True), ((1, "live", 0), True, (2, "live", 0), False)],
)
# Two senders of one cluster: the cluster is counted once, and both votes
# still reach the outcome's sets.
@example(
    [[0, 1], [2], [3]],
    True,
    [
        ((0, "live", 0), False, (0, "junk", 0), False),
        ((1, "live", 1), False, (0, "junk", 0), False),
        ((2, "live", 0), False, (0, "junk", 0), False),
    ],
)
# A DECIDE classified in the same evaluation whose votes push the count past
# n/2: the DECIDE wins.
@example(
    [[0], [1], [2]],
    True,
    [
        ((0, "live", 0), False, (0, "junk", 0), True),
        ((1, "decide", 1), False, (0, "junk", 0), True),
        ((2, "live", 0), False, (0, "junk", 0), False),
    ],
)
@settings(deadline=None)
def test_incremental_exchange_wait_equals_full_scan_on_every_prefix(
    clusters, expand_clusters, deliveries
):
    """The indexed predicate is ``scan_mailbox`` + majority test, observably.

    One process runs its exchanges in protocol order over one growing
    mailbox; after every append the kernel would evaluate it on, the live
    predicate must answer what the reference answers for that prefix.
    Probes in the adaptive adversary's style (a copy plus one message, an
    unrelated list) and predicates of finished exchanges must match the
    reference too, and -- checked by every later comparison -- leave the
    memo undisturbed.
    """
    topology = ClusterTopology(clusters)
    env = ProcessEnvironment(pid=0, proposal=0, topology=topology)
    ctx = _PredicateCapture()
    mailbox = []

    def check(predicate, key, messages):
        expected = scan_mailbox(messages, env, *key, expand_clusters)
        if not (expected.is_decide or topology.is_majority(len(expected.heard))):
            expected = None
        _assert_same_answer(predicate(messages), expected, topology)

    def message(delivery, position):
        sender, kind, est = delivery
        return make_message(sender % topology.n, _payload(kind, est, position))

    finished = []
    pending = list(deliveries)
    for position, key in enumerate(_EXCHANGES):
        tag, round_number, phase = key
        generator = msg_exchange(ctx, env, round_number, phase, 0, tag, expand_clusters)
        predicate = next(generator)
        while True:
            # The kernel's evaluation: always on the process's own list.
            check(predicate, key, mailbox)
            outcome = predicate(mailbox)
            if outcome is not None or not pending:
                break
            quiet = True
            while quiet and pending:
                delivery, probe, extra, quiet = pending.pop(0)
                for old_predicate, old_key in finished:
                    check(old_predicate, old_key, mailbox)
                if probe:
                    check(predicate, key, list(mailbox) + [message(extra, position)])
                    check(predicate, key, mailbox[::2])
                mailbox.append(message(delivery, position))
        if outcome is None:
            break
        try:
            generator.send(outcome)
        except StopIteration as stop:
            assert stop.value is outcome
        else:
            raise AssertionError("msg_exchange kept waiting after its predicate was satisfied")
        finished.append((predicate, key))
    # Nothing outlives its exchange: finished keys stay closed, and the index
    # references mailbox entries without ever copying the list.
    index = env._inbox
    assert index.mailbox is mailbox
    assert all(index.buckets[key] is None for _, key in finished)
    assert sum(len(bucket) for bucket in index.buckets.values() if bucket) <= len(mailbox)


# -------------------------------------------------------------- consensus objects
@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=1)),
             min_size=1, max_size=8),
    st.sampled_from(["cas", "llsc"]),
)
@settings(max_examples=60, deadline=None)
def test_consensus_object_agreement_validity_any_schedule(proposals, kind):
    factory = CASConsensusObject if kind == "cas" else LLSCConsensusObject
    obj = factory("prop", members=set(range(8)))
    decisions = []
    proposed_values = []
    for pid, value in proposals:
        proposed_values.append(value)
        decisions.append(drive(obj.propose(SyncContext(pid=pid), value)))
    assert len(set(decisions)) == 1
    assert decisions[0] in proposed_values
    assert decisions[0] == proposed_values[0]  # first proposal wins under sequential schedule


# ------------------------------------------------------------------------- stats
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_summary_statistics_invariants(values):
    stats = summarize(values)
    tolerance = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
    assert stats.std >= 0
    assert stats.count == len(values)
    assert stats.minimum <= stats.p90 <= stats.maximum
    assert stats.ci95[0] <= stats.mean <= stats.ci95[1]


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_percentile_bounds_and_monotonicity(values, q):
    value = percentile(values, q)
    assert min(values) <= value <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


# ----------------------------------------------------------------------- rng
@given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_rng_streams_reproducible_for_any_seed_and_name(seed, name):
    a = RandomSource(seed).stream(name)
    b = RandomSource(seed).stream(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]


# ------------------------------------------------- the kernel's two heaps, one order
_STEP, _DELIVERY = int(EventKind.STEP_RESUME), int(EventKind.MESSAGE_DELIVERY)
_ABSORBERS = 3
#: Push a step or a delivery at one of a few times (so ties are the rule), or
#: dispatch up to ``count`` entries: ``(kind | "pop", time | count, pid)``.
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from([_STEP, _DELIVERY]),
            st.sampled_from([0.0, 1.0, 1.5, 2.0]),
            st.integers(min_value=0, max_value=_ABSORBERS - 1),
        ),
        st.tuples(st.just("pop"), st.integers(min_value=1, max_value=4), st.just(0)),
    ),
    max_size=40,
)


class _FirstOfTies:
    """The index-0 schedule controller, recording every tie set it is offered."""

    def __init__(self):
        self.offered = []

    def choose(self, now, time, entries):
        self.offered.append(list(entries))
        return 0


def _entry_tag(entry):
    """The tag of an offered ``(time, sequence, kind, pid, payload)`` tie entry."""
    return entry[4].payload if entry[2] == _DELIVERY else entry[4]


def _drive_queue(ops, controller=None):
    """Apply ``ops`` to a kernel; return ``(dispatched, expected, expected_ties)``.

    Every process blocks for ever and logs what reaches it -- a delivery
    through its wait predicate, a step through the value it is resumed with
    -- so ``dispatched`` is the kernel's dispatch order, as the pushes' tags.
    The reference is one list, sorted by ``(time, push order)`` at every pop.
    """
    kernel = SimulationKernel(config=SimConfig(scheduling_jitter=0.0))
    dispatched = []

    def absorber(ctx):
        seen = 0

        def delivered(mailbox):
            nonlocal seen
            if len(mailbox) > seen:
                seen = len(mailbox)
                dispatched.append(mailbox[-1].payload)

        while True:
            dispatched.append((yield from ctx.wait_until(delivered)))

    for pid in range(_ABSORBERS):
        kernel.add_process(pid, absorber)
    kernel.run_batch()  # the starts: everybody blocks on an empty mailbox
    if controller is not None:
        kernel.install_schedule_controller(controller)
    pending, expected, expected_ties = [], [], []
    for tag, (kind, value, pid) in enumerate(list(ops) + [("pop", len(ops) + 1, 0)]):  # drain
        if kind == "pop":
            for _ in range(min(value, len(pending))):
                pending.sort()
                ties = [entry[1] for entry in pending if entry[0] == pending[0][0]]
                if len(ties) > 1:
                    expected_ties.append(ties)
                expected.append(pending.pop(0)[1])
            kernel.run_batch(value)
        else:
            payload = Message(0, pid, tag, 0.0, tag) if kind == _DELIVERY else tag
            kernel._schedule(value, kind, pid, payload)
            pending.append((value, tag))
    assert not kernel._queue and not kernel._inflight
    return dispatched, expected, expected_ties


@given(_QUEUE_OPS)
@settings(max_examples=150, deadline=None)
@example([(_DELIVERY, 1.0, 0), (_STEP, 1.0, 1), (_STEP, 0.0, 2), (_DELIVERY, 1.0, 2)])
def test_two_heaps_dispatch_in_time_then_sequence_order(ops):
    dispatched, expected, expected_ties = _drive_queue(ops)
    assert dispatched == expected
    if not any(kind == "pop" for kind, _, _ in ops):
        pushes = [(time, tag) for tag, (_, time, _) in enumerate(ops)]
        assert dispatched == [tag for _, tag in sorted(pushes)]

    controller = _FirstOfTies()
    assert _drive_queue(ops, controller)[0] == expected  # index 0 is the native order
    assert [[_entry_tag(entry) for entry in ties] for ties in controller.offered] == expected_ties


def test_controller_is_offered_ties_spanning_both_heaps():
    controller = _FirstOfTies()
    ops = [(_DELIVERY, 1.0, 0), (_STEP, 1.0, 1), (_DELIVERY, 1.0, 2), (_STEP, 2.0, 0)]
    dispatched, expected, _ = _drive_queue(ops, controller)
    assert dispatched == expected == [0, 1, 2, 3]
    first, second = controller.offered
    assert [entry[2] for entry in first] == [_DELIVERY, _STEP, _DELIVERY]
    assert [entry[2] for entry in second] == [_STEP, _DELIVERY]  # the unchosen went back
    for time, sequence, kind, pid, payload in first:
        assert time == 1.0 and (type(payload) is Message) == (kind == _DELIVERY)
    sequences = [entry[1] for entry in first]
    assert sequences == sorted(sequences)


# ------------------------------------------ the run store pops as one heap would
#: Constant delays tie a broadcast's due times with other broadcasts'; an
#: exponential mean of a few steps makes messages due while their broadcast
#: is still sending, so runs are sealed early and reopened.
_DELAY_MODELS = {
    "constant": ConstantDelay(1.0),
    "uniform": UniformDelay(0.5, 1.5),
    "exponential": ExponentialDelay(mean=3e-4, floor=0.0),
}
_STORE_OPS = st.lists(
    st.lists(
        st.one_of(st.just(("broadcast", 0)), st.tuples(st.just("send"), st.integers(0, 4))),
        max_size=5,
    ),
    min_size=2,
    max_size=5,
)


class _RecordingStruct:
    """The kernel's record layout, logging every record it packs as a push."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log
        self.size = inner.size
        self.unpack_from = inner.unpack_from
        self.iter_unpack = inner.iter_unpack

    def pack(self, time, key, dest, send_time):
        self._log.append(("push", time, key, dest))
        return self._inner.pack(time, key, dest, send_time)

    def pack_into(self, buffer, offset, time, key, dest, send_time):
        self._log.append(("push", time, key, dest))
        self._inner.pack_into(buffer, offset, time, key, dest, send_time)


class _StoreProbe:
    """An adversary stand-in: logs every dispatched delivery as a pop.

    It also makes the store's other writers write: extra copies of a send
    (duplicates join their broadcast's open run), deferrals (a re-queue is a
    run of one; each delivery is deferred at most once) and outages (a
    paused backlog is replayed as runs of one).
    """

    corrupts = False
    defers_events = True

    def __init__(self, log, faults_links, copies, deferrals, outages):
        self._log = log
        self.faults_links = faults_links
        self._copies = itertools.cycle(copies or [()])
        self._deferrals = itertools.cycle(deferrals or [0.0])
        self._outages = outages
        self._deferred = set()

    def install(self, kernel):
        pids = kernel.process_ids()
        for pid, down_at, length in self._outages:
            kernel.schedule_pause(pids[pid % len(pids)], down_at, down_at + length)

    def deliveries(self, sender, dest, now, delay):
        return (delay, *next(self._copies))

    def defer(self, kind, pid, payload, key, now):
        if kind != _DELIVERY:
            return 0.0
        self._log.append(("pop", now, payload.msg_id, pid))
        extra = next(self._deferrals)
        if extra and key not in self._deferred:
            self._deferred.add(key)
            return extra
        return 0.0


class _TieAuditor:
    """The index-0 controller, checking that a tie set lifts every message due then."""

    def __init__(self):
        self.kernel = None
        self.offered = 0

    def choose(self, now, time, entries):
        self.offered += 1
        assert all(due != time for due, _, _ in kernel_module._in_flight_messages(self.kernel))
        return 0


def _store_run(programs, delays, config, probe_args, controller=None):
    """Run ``programs`` (one per process) and return the push/pop log."""
    n = len(programs)
    log = []
    kernel = SimulationKernel(seed=3, config=config)
    kernel.attach_network(Network(n, delay_model=_DELAY_MODELS[delays], rng=kernel.rng))

    def program(ops):
        def run(ctx):
            for op, dest in ops:
                if op == "broadcast":
                    yield from ctx.broadcast(("all", ctx.pid))
                else:
                    yield from ctx.send(dest % n, ("one", ctx.pid))
            yield from ctx.wait_until(lambda mailbox: None)

        return run

    for pid, ops in enumerate(programs):
        kernel.add_process(pid, program(ops))
    kernel.install_adversary(_StoreProbe(log, *probe_args))
    if controller is not None:
        controller.kernel = kernel
        kernel.install_schedule_controller(controller)
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(kernel_module, "_RECORD", _RecordingStruct(kernel_module._RECORD, log))
        kernel.run()
    assert not kernel._inflight, "every message in flight is dispatched"
    return log


@given(
    _STORE_OPS,
    st.sampled_from(sorted(_DELAY_MODELS)),
    st.sampled_from([0.0, 1e-4]),
    st.sampled_from([0.0, 1e-5]),
    st.booleans(),
    st.lists(st.lists(st.sampled_from([0.0, 1e-4, 0.5]), max_size=2).map(tuple), max_size=4),
    st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-4, 1.0]), max_size=6),
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([0.0, 2e-4, 1.0]), st.sampled_from([1e-4, 0.5])),
        max_size=2,
    ),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(
    [[("broadcast", 0)] * 3, [("send", 0), ("broadcast", 0)]], "constant", 0.0, 0.0, True, [(0.0,)], [1e-4], []
)
@example(
    [[("broadcast", 0)] * 2, [("broadcast", 0)]],
    "exponential", 1e-4, 1e-5, True, [(), (1e-4, 0.5)], [], [(1, 2e-4, 0.5)],
)
def test_the_run_store_pops_the_order_of_one_heap_of_messages(
    programs, delays, step, jitter, faults_links, copies, deferrals, outages
):
    """Every dispatched delivery is the least ``(time, key)`` a reference heap holds.

    The reference is one ``heapq`` of ``(time, key, dest)`` tuples, pushed
    whenever the kernel packs a record (a send, a copy, a re-queue) and
    popped whenever the kernel dispatches a delivery.  A schedule controller
    that always picks the first tie dispatches the same deliveries in the
    same order, though it lifts every message due now out of its run --
    none is left behind in a run when the tie set is offered.
    """
    config = SimConfig(local_step_delay=step, scheduling_jitter=jitter)
    probe_args = (faults_links, copies, deferrals, outages)
    log = _store_run(programs, delays, config, probe_args)
    reference = []
    for op, time, key, dest in log:
        if op == "push":
            heappush(reference, (time, key, dest))
        else:
            due, least, to = heappop(reference)
            assert (due, least & _MSG_ID_MASK, to) == (time, key, dest)
    assert not reference
    pops = [entry for entry in log if entry[0] == "pop"]
    auditor = _TieAuditor()
    controlled = _store_run(programs, delays, config, probe_args, auditor)
    assert [entry for entry in controlled if entry[0] == "pop"] == pops


# --------------------------------------------------------- end-to-end (sampled)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(["hybrid-local-coin", "hybrid-common-coin"]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_small_configurations_satisfy_consensus(n, m, seed, algorithm):
    m = min(m, n)
    topology = ClusterTopology.even_split(n, m)
    proposals = {pid: (pid * 7 + seed) % 2 for pid in range(n)}
    result = run_consensus(
        ExperimentConfig(topology=topology, algorithm=algorithm, proposals=proposals, seed=seed)
    )
    result.report.raise_on_violation()
    assert result.decided_value in set(proposals.values())


# ------------------------------------- the run-directory reader under damage
_SHARDS = 3
_READER_VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
    "local-v2": {"algorithm": "hybrid-local-coin", "tag": "v2"},
}


def _reader_plan():
    base = ExperimentConfig(topology=ClusterTopology.figure1_right())
    return plan_sweep(base, _READER_VARIATIONS, default_seeds(3))


@pytest.fixture(scope="module")
def run_directories(tmp_path_factory):
    """One complete k=3 static directory, one two-worker steal directory, and the truth.

    ``files[layout][point_index]`` maps each checkpoint file name of the point
    to the shard that wrote it, by the *write* side's naming function.
    """
    plan = _reader_plan()
    static = tmp_path_factory.mktemp("static")
    for index in range(1, _SHARDS + 1):
        run_shard(plan, ShardSpec(index, _SHARDS), static, max_workers=1)
    steal = tmp_path_factory.mktemp("steal")
    run_work_stealing(plan, steal, worker="a", max_workers=1, max_points=1)
    run_work_stealing(plan, steal, worker="b", max_workers=1)
    files = {"static": [], "steal": []}
    for layout, count in (("static", _SHARDS), ("steal", 1)):
        for point_index in range(len(plan.points)):
            shards = [ShardSpec(index, count) for index in range(1, count + 1)]
            files[layout].append(
                {
                    checkpoint_path(static, shard, point_index).name: shard
                    for shard in shards
                    if plan.owned_positions(point_index, shard)
                }
            )
    return {"static": static, "steal": steal}, files, run_plan(plan, max_workers=1)


@given(
    layout=st.sampled_from(["static", "steal"]),
    damage=st.lists(st.sampled_from(["keep", "keep", "delete", "junk"]), min_size=9, max_size=9),
    junk=st.binary(max_size=48),
)
@settings(max_examples=30, deadline=None)
def test_reader_folds_exactly_what_survives_and_says_what_is_missing(
    run_directories, layout, damage, junk
):
    masters, files, truth = run_directories
    plan = _reader_plan()
    labels = [point.label for point in plan.points]
    fate = {}
    for by_name in files[layout]:
        for name in by_name:
            fate[name] = damage[len(fate)]
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run"
        shutil.copytree(masters[layout], out)
        for name, action in fate.items():
            if action == "delete":
                (out / name).unlink()
            elif action == "junk":
                (out / name).write_bytes(junk)
        merger = IncrementalMerger(out, _reader_plan())
        survivors = [
            label
            for label, by_name in zip(labels, files[layout])
            if all(fate[name] == "keep" for name in by_name)
        ]
        assert merger.poll() == survivors
        assert all(merger.aggregates[label] == truth[label] for label in survivors)
        if len(survivors) < len(labels):
            with pytest.raises(ManifestError) as refusal:
                merger.merged()
            message = str(refusal.value)
            deleted = {name for name, action in fate.items() if action == "delete"}
            if not deleted:
                # Every file is there; what is wrong is inside one, and it is named.
                (named,) = set(re.findall(r"[\w-]+\.json", message))
                assert "checkpoint" in message and fate[named] == "junk"
            else:
                # One wording for every directory: each point short of a file, and the shards it lacks.
                for label, by_name in zip(labels, files[layout]):
                    lacking = [str(shard) for name, shard in by_name.items() if name in deleted]
                    if lacking:
                        assert f"{label!r} lacks shard {', '.join(lacking)}" in message
                    else:
                        assert f"{label!r} lacks" not in message
        # The files come back (a shard resumed, a worker recomputed): the *same*
        # merger finishes, bit-identical to the single-host run.
        for name in fate:
            shutil.copy(masters[layout] / name, out / name)
        merger.poll()
        assert merger.merged().aggregates == truth
