"""Run metrics: the quantities the experiments measure and report.

As "Substitutions" in ``docs/experiments.md`` records, the measured
quantities are *counts* (messages, shared-memory operations,
consensus-object invocations, rounds, coin flips) and *virtual* latencies,
not wall-clock durations -- the paper's claims are about these structural
quantities, and Python wall-clock numbers would only measure the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Sequence

from ..sharedmem.memory import ClusterSharedMemory
from ..sim.kernel import SimulationResult


@dataclass
class RunMetrics:
    """Aggregate measurements of one consensus run."""

    algorithm: str
    n: int
    m: int
    seed: int
    status: str
    terminated: bool
    decided_value: Optional[int]
    crashed: int
    correct_deciders: int
    rounds_max: int
    rounds_mean: float
    phases_per_round: int
    messages_sent: int
    messages_delivered: int
    bytes_sent: int
    sm_ops: int
    consensus_objects_created: int
    consensus_invocations: int
    coin_flips: int
    decision_time_max: float
    decision_time_mean: float
    end_time: float
    events_processed: int
    wall_time_seconds: float = 0.0
    #: Adversary-injected channel faults (0 unless a scenario is installed).
    messages_omitted: int = 0
    messages_duplicated: int = 0
    messages_corrupted: int = 0
    #: Environment provenance recorded for reports and shard manifests: the
    #: delay model's ``describe()`` string and the fault scenario's name
    #: ("none" without one).  Strings, so they never enter numeric summaries.
    delay_model: str = ""
    scenario: str = "none"

    # ------------------------------------------------------------ derived
    @property
    def consensus_objects_per_phase(self) -> float:
        """Shared-memory consensus objects touched per phase of a round.

        The paper's Section III-C comparison: ``m`` for the hybrid model,
        ``n`` for the m&m model.
        """
        phases = self.rounds_max * self.phases_per_round
        if phases == 0:
            return 0.0
        return self.consensus_objects_created / phases

    @property
    def invocations_per_process_per_phase(self) -> float:
        """Consensus-object invocations per correct process per phase.

        ``1`` in the hybrid model, ``α_i + 1`` (averaged) in the m&m model.
        """
        participants = self.n - self.crashed
        phases = self.rounds_max * self.phases_per_round
        if participants == 0 or phases == 0:
            return 0.0
        return self.consensus_invocations / (participants * phases)

    @property
    def messages_per_round(self) -> float:
        """Messages sent per executed round (total messages at 0 rounds)."""
        if self.rounds_max == 0:
            return float(self.messages_sent)
        return self.messages_sent / self.rounds_max

    def as_dict(self) -> Dict[str, Any]:
        """All fields plus the derived ratios, as a plain dictionary.

        A shallow walk in field order: every field holds a number, a string
        or ``None``, so there is nothing for ``dataclasses.asdict``'s deep
        copy to copy.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["consensus_objects_per_phase"] = self.consensus_objects_per_phase
        data["invocations_per_process_per_phase"] = self.invocations_per_process_per_phase
        data["messages_per_round"] = self.messages_per_round
        return data


#: :class:`RunMetrics`' field names, in definition order.
_FIELD_NAMES = tuple(metric.name for metric in fields(RunMetrics))


def collect_metrics(
    algorithm: str,
    phases_per_round: int,
    seed: int,
    topology,
    result: SimulationResult,
    network,
    memories: Sequence[ClusterSharedMemory] = (),
    wall_time_seconds: float = 0.0,
    delay_model: str = "",
    scenario: str = "none",
) -> RunMetrics:
    """Assemble a :class:`RunMetrics` from the run's substrate objects."""
    decider_rounds = [result.rounds[pid] for pid in result.decisions]
    participant_rounds = [result.rounds[pid] for pid in result.correct] or [0]
    decision_times = list(result.decision_times.values())
    stats = result.process_stats.values()
    decided_value: Optional[int] = None
    if result.decisions and len(result.decided_values) == 1:
        decided_value = next(iter(result.decided_values))

    memories = list(memories)
    return RunMetrics(
        algorithm=algorithm,
        n=topology.n,
        m=topology.m,
        seed=seed,
        status=result.status.value,
        terminated=result.status.terminated,
        decided_value=decided_value,
        crashed=len(result.crashed),
        correct_deciders=len([pid for pid in result.decisions if pid in result.correct]),
        rounds_max=max(participant_rounds + decider_rounds, default=0),
        rounds_mean=(sum(decider_rounds) / len(decider_rounds)) if decider_rounds else 0.0,
        phases_per_round=phases_per_round,
        messages_sent=network.stats.messages_sent,
        messages_delivered=network.stats.messages_delivered,
        bytes_sent=network.stats.bytes_sent,
        sm_ops=sum(memory.total_operations() for memory in memories),
        consensus_objects_created=sum(memory.consensus_objects_created() for memory in memories),
        consensus_invocations=sum(memory.consensus_invocations() for memory in memories),
        coin_flips=sum(stat.coin_flips for stat in stats),
        decision_time_max=max(decision_times, default=0.0),
        decision_time_mean=(sum(decision_times) / len(decision_times)) if decision_times else 0.0,
        end_time=result.end_time,
        events_processed=result.events_processed,
        wall_time_seconds=wall_time_seconds,
        messages_omitted=network.stats.messages_omitted,
        messages_duplicated=network.stats.messages_duplicated,
        messages_corrupted=network.stats.messages_corrupted,
        delay_model=delay_model,
        scenario=scenario,
    )


#: Metric fields excluded from run summaries.  Wall-clock time measures the
#: simulator, not the algorithms (see the calibration note at the top of this
#: module), and it is the one nondeterministic field -- keeping it would make
#: otherwise bit-identical serial/parallel/chunked aggregates diverge.
NON_STRUCTURAL_FIELDS = frozenset({"wall_time_seconds"})


def numeric_metric_values(metrics: RunMetrics) -> Dict[str, float]:
    """The numeric *structural* metric fields of one run, derived ratios included.

    This is the payload a :class:`~repro.harness.aggregate.RunSummary`
    carries across the worker pipe: booleans are excluded (they are outcome
    flags, not measurements), ``None`` values (e.g. ``decided_value`` of a
    non-terminating run) are dropped rather than coerced, and the
    nondeterministic :data:`NON_STRUCTURAL_FIELDS` are left out so summary
    aggregates are reproducible bit for bit.
    """
    values: Dict[str, float] = {}
    for name, value in metrics.as_dict().items():
        if name in NON_STRUCTURAL_FIELDS:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        values[name] = float(value)
    return values

