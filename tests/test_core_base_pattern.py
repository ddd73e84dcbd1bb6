"""Unit tests for the core definitions and the msg_exchange scan logic."""

import os
import pathlib
import subprocess
import sys

import pytest

from tests.helpers import make_message

from repro.cluster.topology import ClusterTopology
from repro.coins.local import DeterministicCoin
from repro.core.base import (
    BOT,
    BOTTOM_HASH,
    DecideMessage,
    PhaseMessage,
    ProcessEnvironment,
    validate_proposal,
)
from repro.core import pattern
from repro.core.pattern import ExchangeOutcome, scan_mailbox
from repro.harness.config import ALGORITHMS, ExperimentConfig
from repro.harness.runner import prepare_consensus, run_consensus
from repro.sharedmem.memory import ClusterSharedMemory
from repro.sim.kernel import SimulationKernel


# ------------------------------------------------------------------------- base
def test_bot_is_a_singleton_with_nice_repr():
    from repro.core.base import _Bottom

    assert BOT is _Bottom()
    assert repr(BOT) == "⊥"
    assert BOT not in (0, 1)


def test_bot_hashes_to_a_constant_in_every_interpreter():
    """Two fresh interpreters, two hash seeds: one ``hash(BOT)``, one set order."""
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    probe = (
        "from repro.core.base import BOT\n"
        "print(hash(BOT))\n"
        "print(repr({0, BOT, 1, 8, 2, 24, 3, 40}))\n"
        "print(repr({(0, BOT), (1, BOT), BOT, 5}))\n"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].decode().splitlines()[0] == str(BOTTOM_HASH)
    assert outputs[0] == outputs[1]


def test_validate_proposal_accepts_only_bits():
    assert validate_proposal(0) == 0
    assert validate_proposal(1) == 1
    for bad in (2, -1, None, "1", BOT):
        with pytest.raises(ValueError):
            validate_proposal(bad)


def test_phase_and_decide_messages_are_frozen():
    msg = PhaseMessage(tag="t", round_number=1, phase=2, est=BOT)
    with pytest.raises(AttributeError):
        msg.est = 1
    decide = DecideMessage(tag="t", value=1)
    with pytest.raises(AttributeError):
        decide.value = 0


def test_process_environment_validation():
    topo = ClusterTopology.figure1_right()
    memory = ClusterSharedMemory(1, topo.cluster_members(1))
    env = ProcessEnvironment(pid=2, proposal=1, topology=topo, memory=memory)
    assert env.cluster_index == 1
    assert env.cluster == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        ProcessEnvironment(pid=99, proposal=1, topology=topo)
    with pytest.raises(ValueError):
        ProcessEnvironment(pid=2, proposal=7, topology=topo)
    with pytest.raises(Exception):
        ProcessEnvironment(pid=0, proposal=1, topology=topo, memory=memory)  # not a member


# --------------------------------------------------------------------- pattern
def _env(topology, pid=0):
    return ProcessEnvironment(pid=pid, proposal=0, topology=topology)


def phase_msg(sender, est, r=1, ph=1, tag="t"):
    return make_message(sender, PhaseMessage(tag=tag, round_number=r, phase=ph, est=est))


def test_scan_empty_mailbox_has_no_supporters():
    topo = ClusterTopology.even_split(6, 3)
    outcome = scan_mailbox([], _env(topo), "t", 1, 1)
    assert outcome.kind == "supporters"
    assert outcome.heard == frozenset()
    assert outcome.values_received == frozenset()
    assert outcome.majority_value(topo) is None


def test_scan_attributes_whole_cluster_to_one_sender():
    topo = ClusterTopology([[0, 1, 2, 3], [4, 5], [6]])
    outcome = scan_mailbox([phase_msg(0, est=1)], _env(topo), "t", 1, 1)
    # One message from cluster {0,1,2,3} counts for all four members.
    assert outcome.supporters_of(1) == frozenset({0, 1, 2, 3})
    assert outcome.heard == frozenset({0, 1, 2, 3})
    assert outcome.majority_value(topo) == 1


def test_scan_without_cluster_expansion_counts_senders_only():
    topo = ClusterTopology([[0, 1, 2, 3], [4, 5], [6]])
    outcome = scan_mailbox([phase_msg(0, est=1)], _env(topo), "t", 1, 1, expand_clusters=False)
    assert outcome.supporters_of(1) == frozenset({0})
    assert outcome.majority_value(topo) is None


def test_scan_ignores_other_rounds_phases_and_tags():
    topo = ClusterTopology.even_split(4, 2)
    mailbox = [
        phase_msg(0, est=1, r=2),
        phase_msg(1, est=1, ph=2),
        phase_msg(2, est=1, tag="other"),
        make_message(3, "not a protocol message"),
    ]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 1)
    assert outcome.heard == frozenset()


def test_scan_decide_message_short_circuits():
    topo = ClusterTopology.even_split(4, 2)
    mailbox = [phase_msg(0, est=1), make_message(2, DecideMessage(tag="t", value=0))]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 1)
    assert outcome.is_decide
    assert outcome.decide_value == 0


def test_scan_decide_message_with_other_tag_is_ignored():
    topo = ClusterTopology.even_split(4, 2)
    mailbox = [make_message(2, DecideMessage(tag="other", value=0))]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 1)
    assert not outcome.is_decide


def test_scan_collects_bot_values_and_mixed_sets():
    topo = ClusterTopology([[0, 1], [2, 3], [4]])
    mailbox = [phase_msg(0, est=1, ph=2), phase_msg(2, est=BOT, ph=2)]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 2)
    assert outcome.values_received == frozenset({1, BOT})
    assert outcome.supporters_of(BOT) == frozenset({2, 3})
    assert outcome.heard == frozenset({0, 1, 2, 3})


def test_majority_value_requires_strict_majority():
    topo = ClusterTopology([[0, 1], [2, 3]])
    # Two of four supporters is not a strict majority.
    outcome = scan_mailbox([phase_msg(0, est=1)], _env(topo), "t", 1, 1)
    assert outcome.majority_value(topo) is None
    outcome = scan_mailbox([phase_msg(0, est=1), phase_msg(2, est=1)], _env(topo), "t", 1, 1)
    assert outcome.majority_value(topo) == 1


def test_at_most_one_majority_value_possible():
    topo = ClusterTopology.even_split(5, 5)
    mailbox = [phase_msg(pid, est=(0 if pid < 3 else 1)) for pid in range(5)]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 1)
    assert outcome.majority_value(topo) == 0
    assert outcome.supporters_of(0) == frozenset({0, 1, 2})
    assert outcome.supporters_of(1) == frozenset({3, 4})


def test_duplicate_messages_from_same_cluster_do_not_inflate_support():
    topo = ClusterTopology([[0, 1, 2], [3, 4]])
    mailbox = [phase_msg(0, est=1), phase_msg(1, est=1), phase_msg(2, est=1)]
    outcome = scan_mailbox(mailbox, _env(topo), "t", 1, 1)
    assert outcome.supporters_of(1) == frozenset({0, 1, 2})


def test_exchange_outcome_helpers():
    outcome = ExchangeOutcome(kind="supporters", round_number=1, phase=1)
    assert outcome.supporters_of(0) == frozenset()
    decide = ExchangeOutcome(kind="decide", round_number=1, phase=1, decide_value=1)
    assert decide.is_decide


# ------------------------------------------------------------- exchange cost
class _CountingMailbox(list):
    """A mailbox that counts every element a reader is handed."""

    reads = 0

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def __getitem__(self, item):
        found = super().__getitem__(item)
        self.reads += len(found) if isinstance(item, slice) else 1
        return found


def _mailbox_reads(algorithm, n, rounds):
    """Total mailbox element reads of one run pinned to ``rounds`` rounds."""

    def scripted_coin(pid):
        # Keeps the estimates split until the last round (bench/workloads.py).
        return DeterministicCoin([pid % 2] * (rounds - 2) + [0, 0])

    config = ExperimentConfig(
        topology=ClusterTopology.singleton_clusters(n), algorithm=algorithm, proposals="split", seed=3
    )
    prepared = prepare_consensus(config, local_coin_factory=scripted_coin)
    kernel = prepared.kernel
    mailboxes = []
    for pid in kernel.process_ids():
        kernel.process(pid).mailbox = mailbox = _CountingMailbox()
        mailboxes.append(mailbox)
    result = prepared.finalize(kernel.run(), 0.0)
    assert result.report.ok and result.metrics.rounds_max == rounds
    return sum(mailbox.reads for mailbox in mailboxes)


@pytest.mark.parametrize("algorithm", ["hybrid-local-coin", "ben-or"])
def test_msg_exchange_reads_each_message_once(algorithm):
    """Twice the rounds is twice the messages, and twice the mailbox reads.

    A predicate that re-scans the mailbox on every delivery reads
    O(rounds^2) elements (ratio ~4 here); the indexed one reads each once.
    """
    shallow = _mailbox_reads(algorithm, n=6, rounds=8)
    deep = _mailbox_reads(algorithm, n=6, rounds=16)
    assert deep <= 2.2 * shallow


# ---------------------------------------------------------- exchange hot path
def _gate_config(algorithm):
    # The shared-memory baseline only exists on one cluster.
    if algorithm == "shared-memory":
        topology = ClusterTopology.single_cluster(7)
    else:
        topology = ClusterTopology.even_split(7, 3)
    return ExperimentConfig(topology=topology, algorithm=algorithm, seed=0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_exchange_counts_its_votes_and_builds_no_set(monkeypatch, algorithm):
    """A run decides from attribution counts; the sets wait for a reader.

    The algorithms only ever ask an outcome for its majority and its
    values, so no outcome's ``supporters``/``heard`` is built during a run,
    and a broadcast reads the kernel's pid tuple instead of asking for a
    sorted list (the only ``process_ids`` calls left are the failure
    pattern's and the adversary's, at most one each).
    """
    builds, outcomes, pid_lists = [], [], []
    real_sets = pattern._attributed_sets
    real_counted = pattern._counted_outcome
    real_process_ids = SimulationKernel.process_ids

    def counting_sets(*args):
        builds.append(args)
        return real_sets(*args)

    def keeping_outcome(*args):
        outcome = real_counted(*args)
        outcomes.append(outcome)
        return outcome

    def counting_process_ids(kernel):
        pid_lists.append(kernel)
        return real_process_ids(kernel)

    monkeypatch.setattr(pattern, "_attributed_sets", counting_sets)
    monkeypatch.setattr(pattern, "_counted_outcome", keeping_outcome)
    monkeypatch.setattr(SimulationKernel, "process_ids", counting_process_ids)
    config = _gate_config(algorithm)
    result = run_consensus(config)
    assert result.report.ok
    assert builds == []
    assert len(pid_lists) <= 2
    if algorithm == "shared-memory":
        assert outcomes == []
        return
    assert outcomes, "every message-passing algorithm completes exchanges"
    outcome = outcomes[-1]
    heard = outcome.heard
    assert len(builds) == 1
    assert outcome.supporters is outcome.supporters and outcome.heard is heard
    assert len(builds) == 1, "the sets are built once, on first read"
    topology = config.topology
    majorities = [v for v in (0, 1) if topology.is_majority(len(outcome.supporters_of(v)))]
    assert outcome.majority_value(topology) == (majorities[0] if majorities else None)
    assert topology.is_majority(len(heard))
