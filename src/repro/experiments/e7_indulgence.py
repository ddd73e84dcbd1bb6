"""E7 — Indulgence: safety is never sacrificed, even when termination is lost.

When the paper's termination condition does not hold (the clusters that keep
a correct process do not cover a strict majority), the algorithms "may not
terminate", but they are *indulgent*: whatever the failure pattern, they
never terminate with an incorrect result.  The experiment runs both hybrid
algorithms and the message-passing baselines under adversarial crash
patterns that violate their respective termination conditions, bounds the
executions (round cap and virtual-time cap), and verifies that every
decision that does get made is still valid and consistent.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig, termination_expected
from ..sim.config import SimConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "If no set of clusters with a surviving member covers a strict majority, the algorithm may "
    "not terminate; however it is indulgent: whatever the failure pattern, it never terminates "
    "with an incorrect result."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    n: int = 8,
    m: int = 4,
    round_cap: int = 25,
    algorithms: Sequence[str] = (
        "hybrid-local-coin",
        "hybrid-common-coin",
        "ben-or",
        "mp-common-coin",
    ),
) -> SweepPlan:
    """Enumerate adversarial crash patterns that break the termination condition."""
    seeds = list(seeds) if seeds is not None else default_seeds(12)
    topology = ClusterTopology.even_split(n, m)
    violating = FailurePattern.violate_termination_condition(topology, time=2.0)
    majority_crash = FailurePattern.crash_set(range(n // 2 + 1), time=2.0)
    sim = SimConfig(max_rounds=round_cap, max_time=5e4)
    notes = [
        f"topology {topology.describe()}; cluster-condition-violating pattern crashes "
        f"{violating.crash_count()} processes at t=2, majority pattern crashes "
        f"{majority_crash.crash_count()} at t=2 (crashes happen mid-execution, so early "
        "decisions by some processes are possible and must stay consistent)."
    ]
    points = []
    for algorithm in algorithms:
        pattern = violating if algorithm.startswith("hybrid") else majority_crash
        points.append(
            PlanPoint(
                label=algorithm,
                config=ExperimentConfig(
                    topology=topology,
                    algorithm=algorithm,
                    proposals="split",
                    failure_pattern=pattern,
                    sim=sim,
                ),
                check=False,
                meta=dict(
                    algorithm=algorithm,
                    pattern=(
                        "cluster-condition-violated"
                        if algorithm.startswith("hybrid")
                        else "majority-crashed"
                    ),
                    termination_expected=termination_expected(algorithm, topology, pattern),
                ),
            )
        )
    return SweepPlan(
        key="E7", seeds=seeds, points=points, experiment="e7", meta={"notes": notes}
    )


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E7 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E7",
        title="Indulgence under termination-breaking failure patterns",
        paper_claim=PAPER_CLAIM,
    )
    for note in plan.meta["notes"]:
        report.add_note(note)
    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            termination_rate=aggregate.termination_rate(),
            some_process_decided_rate=aggregate.decided_rate(),
            safety_rate=aggregate.safety_rate(),
        )

    report.passed = all(row["safety_rate"] == 1.0 for row in report.rows) and all(
        not row["termination_expected"] for row in report.rows
    )
    return report
