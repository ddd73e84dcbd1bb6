"""E1 — Figure 1: two cluster decompositions of n = 7 processes into m = 3 clusters.

Reconstructs both decompositions of the paper's Figure 1, checks that they
are valid partitions with the properties the paper uses (the right one has a
majority cluster, the left one does not), and runs both hybrid algorithms on
both decompositions to show that the decomposition shape changes the cost
profile (rounds, messages, shared-memory operations) but never the decided
outcome's correctness.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "Figure 1 shows two decompositions of 7 processes into 3 clusters; in the right one, "
    "cluster P[2]={p2..p5} holds a strict majority, which is what makes the headline "
    "fault-tolerance scenario possible."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = ("hybrid-local-coin", "hybrid-common-coin"),
) -> SweepPlan:
    """Enumerate both hybrid algorithms on both Figure 1 decompositions."""
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    decompositions = {
        "figure1-left": ClusterTopology.figure1_left(),
        "figure1-right": ClusterTopology.figure1_right(),
    }
    points, notes = [], []
    for name, topology in decompositions.items():
        notes.append(
            f"{name}: {topology.describe()} (majority cluster: "
            f"{topology.majority_cluster_index() is not None})"
        )
        for algorithm in algorithms:
            points.append(
                PlanPoint(
                    label=f"{name}/{algorithm}",
                    config=ExperimentConfig(topology=topology, algorithm=algorithm, proposals="split"),
                    check=True,
                    meta=dict(
                        decomposition=name,
                        algorithm=algorithm,
                        n=topology.n,
                        m=topology.m,
                        majority_cluster=topology.majority_cluster_index() is not None,
                    ),
                )
            )
    return SweepPlan(
        key="E1", seeds=seeds, points=points, experiment="e1", meta={"notes": notes}
    )


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E1 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E1",
        title="Figure 1 cluster decompositions",
        paper_claim=PAPER_CLAIM,
    )
    for note in plan.meta["notes"]:
        report.add_note(note)
    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            termination_rate=aggregate.termination_rate(),
            mean_rounds=aggregate.mean("rounds_max"),
            mean_messages=aggregate.mean("messages_sent"),
            mean_sm_ops=aggregate.mean("sm_ops"),
        )
    report.passed = (
        all(row["termination_rate"] == 1.0 for row in report.rows)
        and ClusterTopology.figure1_right().majority_cluster_index() is not None
        and ClusterTopology.figure1_left().majority_cluster_index() is None
    )
    return report
