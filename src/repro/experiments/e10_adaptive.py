"""E10 — Adaptive adversaries: state-conditioned attacks and systemic analysis.

E9 plays *oblivious* adversaries (seeded coin flips, fixed windows); this
experiment plays the adaptive strategies from
:mod:`repro.adversary.adaptive`, whose fault decisions condition on the
observed execution -- deferring exactly the quorum-completing message
(delay-pivotal), suppressing the leading estimate around the coin flip
(target-coin, in delaying and omitting flavours), keeping partition groups
a round apart (split-rounds) -- plus authenticated Byzantine payload
corruption (byzantine-tamper), swept over scenario × intensity ×
algorithm.  Safety must stay at 100% against *every* strategy (the paper's
indulgence claim, now under an adversary that actually watches the run);
the liveness columns show which attacks merely slow the algorithms and
which starve them.  The report closes with a
:func:`~repro.search.systemic.detect_systemic_failure` pass over the
sweep grid, promoting per-cell degradation into named systemic findings.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..adversary.adaptive import adaptive_scenario_names, build_adaptive_scenario
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..search.systemic import detect_systemic_failure
from ..sim.config import SimConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "Indulgence is unconditional: even an adaptive adversary that observes the "
    "execution and targets pivotal messages, leading estimates or round alignment -- "
    "or tampers with payloads on an authenticated channel -- can only delay or starve "
    "termination, never make two processes decide differently nor make anybody decide "
    "an unproposed value."
)

#: The scenario names ``--scenario`` accepts: every adaptive strategy, which
#: the default plan sweeps.
SCENARIOS = tuple(adaptive_scenario_names())

#: Strategy intensities swept per scenario.
DEFAULT_INTENSITIES = (0.3, 0.7)

#: Algorithms attacked by default: the paper's hybrid algorithm plus the
#: pure message-passing control, whose quorums the strategies target most
#: directly.
DEFAULT_ALGORITHMS = ("hybrid-local-coin", "ben-or")


def plan(
    seeds: Optional[Sequence[int]] = None,
    scenarios: Optional[Sequence[str]] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    n: int = 6,
    m: int = 3,
    round_cap: int = 30,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> SweepPlan:
    """Enumerate the adaptive scenario × intensity × algorithm sweep.

    Scenario and algorithm names are normalised to sorted order so any
    host (or a merge rebuilding the plan from manifest-recorded names)
    enumerates the identical plan; the adaptive strategies themselves draw
    no randomness, so every point is as bit-reproducible as the
    declarative sweeps.
    """
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    names = sorted(set(scenarios if scenarios is not None else SCENARIOS))
    algorithm_names = tuple(sorted(set(algorithms)))
    topology = ClusterTopology.even_split(n, m)
    sim = SimConfig(max_rounds=round_cap, max_time=5e4)
    points = []
    for name in names:
        for intensity in tuple(intensities):
            scenario = build_adaptive_scenario(name, n=n, intensity=intensity)
            for algorithm in algorithm_names:
                points.append(
                    PlanPoint(
                        label=f"{name}@{intensity:g}/{algorithm}",
                        config=ExperimentConfig(
                            topology=topology,
                            algorithm=algorithm,
                            proposals="split",
                            scenario=scenario,
                            sim=sim,
                        ),
                        check=False,
                        meta=dict(
                            scenario=name,
                            intensity=intensity,
                            algorithm=algorithm,
                            liveness_preserving=scenario.liveness_preserving,
                        ),
                    )
                )
    notes = [
        f"topology {topology.describe()}, algorithms {', '.join(algorithm_names)}, "
        f"round cap {round_cap}; adaptive strategies condition on observed kernel "
        f"state but draw no randomness -- liveness-preserving ones may only delay "
        f"termination, omitting/tampering ones void the guarantee; safety must hold "
        f"for all."
    ]
    return SweepPlan(key="E10", seeds=seeds, points=points, experiment="e10", meta={"notes": notes})


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E10 report, including the systemic-failure findings."""
    report = ExperimentReport(
        experiment_id="E10",
        title="Adaptive adversaries: state-conditioned attacks on safety and liveness",
        paper_claim=PAPER_CLAIM,
    )
    for note in plan.meta["notes"]:
        report.add_note(note)
    report.add_note(f"delay models: {', '.join(plan.delay_models())}")
    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            safety_rate=aggregate.safety_rate(),
            termination_rate=aggregate.termination_rate(),
            non_termination_rate=1.0 - aggregate.termination_rate(),
            mean_rounds=aggregate.mean("rounds_max"),
            mean_decision_time=aggregate.mean("decision_time_max"),
            mean_omitted=aggregate.mean("messages_omitted"),
            mean_corrupted=aggregate.mean("messages_corrupted"),
        )

    findings = detect_systemic_failure(report.rows)
    for finding in findings:
        report.add_note(f"systemic: {finding.describe()}")
    if not findings:
        report.add_note("systemic: no systemic degradation pattern detected")

    # The pass/fail gate is safety-only: adaptive delay strategies are
    # liveness-preserving in the model's sense (no message is lost), yet
    # deliberately engineered to stall convergence, so bounded-round
    # termination is reported (and analysed above) rather than gated.
    report.passed = all(row["safety_rate"] == 1.0 for row in report.rows) and not any(
        finding.severity == "critical" for finding in findings
    )
    return report
