"""E6 — The extreme configurations of the hybrid model (Section II-A).

``m = n`` (singleton clusters) collapses the model to classical message
passing and Algorithm 2 "boils down to Ben-Or's algorithm"; ``m = 1`` (a
single cluster) collapses it to the classical shared-memory model where a
single deterministic consensus object suffices.  This experiment runs
Algorithm 2 with singleton clusters side by side with the standalone Ben-Or
baseline, and the hybrid algorithms with one cluster side by side with the
shared-memory baseline, and compares their cost profiles.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "With one process per cluster the hybrid model is the classical message-passing model and "
    "Algorithm 2 reduces to Ben-Or's algorithm; with a single cluster it is the classical "
    "shared-memory model, where consensus is deterministic and message-free."
)


def plan(seeds: Optional[Sequence[int]] = None, n: int = 7) -> SweepPlan:
    """Enumerate the degenerate hybrid configurations and their baselines."""
    seeds = list(seeds) if seeds is not None else default_seeds(20)
    singleton = ClusterTopology.singleton_clusters(n)
    single = ClusterTopology.single_cluster(n)
    configs = {
        "hybrid m=n (singleton clusters)": ExperimentConfig(
            topology=singleton, algorithm="hybrid-local-coin", proposals="split"
        ),
        "ben-or (pure message passing)": ExperimentConfig(
            topology=singleton, algorithm="ben-or", proposals="split"
        ),
        "hybrid m=1 (single cluster)": ExperimentConfig(
            topology=single, algorithm="hybrid-local-coin", proposals="split"
        ),
        "hybrid common coin m=1": ExperimentConfig(
            topology=single, algorithm="hybrid-common-coin", proposals="split"
        ),
        "shared-memory baseline": ExperimentConfig(
            topology=single, algorithm="shared-memory", proposals="split"
        ),
    }
    points = [
        PlanPoint(
            label=label,
            config=config,
            check=True,
            meta=dict(configuration=label, n=n),
        )
        for label, config in configs.items()
    ]
    return SweepPlan(key="E6", seeds=seeds, points=points, experiment="e6")


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E6 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E6",
        title="Degenerate configurations: m = n and m = 1",
        paper_claim=PAPER_CLAIM,
    )
    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            mean_rounds=aggregate.mean("rounds_max"),
            mean_messages=aggregate.mean("messages_sent"),
            mean_sm_ops=aggregate.mean("sm_ops"),
            mean_decision_time=aggregate.mean("decision_time_max"),
        )

    singleton_hybrid = report.row_where(configuration="hybrid m=n (singleton clusters)")
    ben_or = report.row_where(configuration="ben-or (pure message passing)")
    single_cluster = report.row_where(configuration="hybrid m=1 (single cluster)")
    shared_memory = report.row_where(configuration="shared-memory baseline")

    # Checks: (i) with singleton clusters the hybrid algorithm's round/message
    # profile is of the same order as Ben-Or's (within a factor 2 on means);
    # (ii) with one cluster the hybrid algorithm decides in a single round;
    # (iii) the shared-memory baseline sends no messages at all.
    passed = True
    if not (0.5 <= singleton_hybrid["mean_rounds"] / max(ben_or["mean_rounds"], 1e-9) <= 2.0):
        passed = False
    if not (0.5 <= singleton_hybrid["mean_messages"] / max(ben_or["mean_messages"], 1e-9) <= 2.0):
        passed = False
    if single_cluster["mean_rounds"] != 1.0:
        passed = False
    if shared_memory["mean_messages"] != 0.0:
        passed = False
    report.passed = passed
    report.add_note(
        "the hybrid algorithm with singleton clusters pays the same message pattern as Ben-Or "
        "(plus vacuous one-member consensus objects); with one cluster it decides in one round "
        "and the message exchange is pure overhead compared to the shared-memory baseline."
    )
    return report
