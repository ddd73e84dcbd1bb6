"""E9 — Adversarial robustness: safety under fault injection, liveness curves.

The paper's algorithms are proved *indulgent*: safety (agreement and
validity) holds against any asynchronous adversary, while termination is
only guaranteed when the model's assumptions (reliable channels, the
cluster condition) hold.  This experiment plays concrete adversaries from
the scenario library (:mod:`repro.adversary.library`) -- lossy links,
duplication storms, delay-inflating reordering, partitions that heal or
drop, slow minorities, crash-recovery outages, and all of it at once --
sweeping scenario × fault intensity.  Safety must stay at 100% everywhere;
the liveness columns (termination rate, rounds, decision latency) show how
gracefully each algorithm degrades, separating liveness-preserving
scenarios (which may only delay) from message-losing ones (which may
legitimately never terminate).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..adversary.library import build_scenario, scenario_names
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..sim.config import SimConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "The algorithms are correct against any asynchronous adversary: whatever the message "
    "behaviour (loss, duplication, reordering, partitions) and failure pattern, no two "
    "processes ever decide differently and no process decides a value nobody proposed; "
    "only termination may be delayed or, when messages are lost, forfeited."
)

#: The scenario names ``--scenario`` accepts: the whole library, which the
#: default plan sweeps.
SCENARIOS = tuple(scenario_names())

#: Fault intensities swept per scenario (the ``none`` baseline runs once at 0).
DEFAULT_INTENSITIES = (0.1, 0.3)


def plan(
    seeds: Optional[Sequence[int]] = None,
    scenarios: Optional[Sequence[str]] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    n: int = 6,
    m: int = 3,
    round_cap: int = 30,
    algorithm: str = "hybrid-local-coin",
) -> SweepPlan:
    """Enumerate the scenario × intensity sweep (the whole library by default).

    Scenario names are normalised to sorted order, so any host (or a later
    ``merge`` rebuilding the plan from manifest-recorded names) enumerates
    the identical plan.  The ``none`` baseline contributes a single
    zero-intensity point.
    """
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    names = sorted(set(scenarios if scenarios is not None else SCENARIOS))
    topology = ClusterTopology.even_split(n, m)
    sim = SimConfig(max_rounds=round_cap, max_time=5e4)
    points = []
    for name in names:
        levels = (0.0,) if name == "none" else tuple(intensities)
        for intensity in levels:
            scenario = build_scenario(name, n=n, intensity=intensity)
            points.append(
                PlanPoint(
                    label=f"{name}@{intensity:g}",
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
                        liveness_preserving=scenario.liveness_preserving,
                    ),
                )
            )
    notes = [
        f"topology {topology.describe()}, algorithm {algorithm}, round cap {round_cap}; "
        f"liveness-preserving scenarios may only delay termination, message-losing ones "
        f"void the termination guarantee -- safety must hold for all of them."
    ]
    return SweepPlan(key="E9", seeds=seeds, points=points, experiment="e9", meta={"notes": notes})


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E9 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E9",
        title="Adversarial robustness: fault injection across the scenario library",
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
            mean_duplicated=aggregate.mean("messages_duplicated"),
        )

    baseline_rows = [row for row in report.rows if row["scenario"] == "none"]
    preserving_rows = [row for row in report.rows if row["liveness_preserving"]]
    report.passed = (
        all(row["safety_rate"] == 1.0 for row in report.rows)
        and all(row["termination_rate"] == 1.0 for row in baseline_rows)
        and all(row["termination_rate"] == 1.0 for row in preserving_rows)
    )
    return report
