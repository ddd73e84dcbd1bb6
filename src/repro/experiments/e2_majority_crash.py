"""E2 — Consensus despite a crashed majority (the paper's headline claim).

With a cluster holding a strict majority of processes, the hybrid algorithms
terminate in failure patterns where *every* process crashes except one member
of that cluster -- a majority of processes crash, which no pure
message-passing consensus can tolerate.  The experiment runs the headline
scenario on several system sizes for both hybrid algorithms, and runs Ben-Or
under a crash of the same cardinality as the control: it must stay safe but
cannot terminate.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..sim.config import SimConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "If a cluster contains a strict majority of processes and at least one of its members "
    "does not crash, consensus is solved despite any failure pattern in the other clusters -- "
    "in particular despite a majority of processes crashing.  Pure message-passing consensus "
    "requires a majority of correct processes."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = (7, 11, 15),
    control_round_cap: int = 40,
) -> SweepPlan:
    """Enumerate the headline scenario per size, plus the Ben-Or control."""
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    points = []
    for n in sizes:
        topology = ClusterTopology.with_majority_cluster(n, others=2)
        survivor = sorted(topology.cluster_members(topology.majority_cluster_index()))[0]
        pattern = FailurePattern.majority_crash_with_surviving_majority_cluster(topology, survivor=survivor)
        crash_count = pattern.crash_count()

        for algorithm in ("hybrid-local-coin", "hybrid-common-coin"):
            points.append(
                PlanPoint(
                    label=f"n={n}/{algorithm}",
                    config=ExperimentConfig(
                        topology=topology,
                        algorithm=algorithm,
                        proposals="split",
                        failure_pattern=pattern,
                    ),
                    check=False,
                    meta=dict(
                        n=n,
                        algorithm=algorithm,
                        crashed=crash_count,
                        crashed_majority=pattern.crashes_majority(n),
                        control=False,
                    ),
                )
            )

        control_pattern = FailurePattern.crash_set(
            sorted(set(range(n)) - {survivor})[:crash_count], time=0.0
        )
        points.append(
            PlanPoint(
                label=f"n={n}/ben-or-control",
                config=ExperimentConfig(
                    topology=topology,
                    algorithm="ben-or",
                    proposals="split",
                    failure_pattern=control_pattern,
                    sim=SimConfig(max_rounds=control_round_cap, max_time=5e4),
                ),
                check=False,
                meta=dict(
                    n=n,
                    algorithm="ben-or (control)",
                    crashed=control_pattern.crash_count(),
                    crashed_majority=control_pattern.crashes_majority(n),
                    control=True,
                ),
            )
        )
    return SweepPlan(key="E2", seeds=seeds, points=points, experiment="e2")


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E2 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E2",
        title="Majority crash with a surviving majority-cluster member",
        paper_claim=PAPER_CLAIM,
    )
    for point in plan.points:
        aggregate = aggregates[point.label]
        meta = point.meta
        report.add_row(
            n=meta["n"],
            algorithm=meta["algorithm"],
            crashed=meta["crashed"],
            crashed_majority=meta["crashed_majority"],
            termination_rate=aggregate.termination_rate(),
            safety_rate=aggregate.safety_rate(),
            mean_rounds=float("nan") if meta["control"] else aggregate.mean("rounds_max"),
        )

    hybrid_rows = [row for row in report.rows if row["algorithm"].startswith("hybrid")]
    control_rows = [row for row in report.rows if row["algorithm"].startswith("ben-or")]
    report.passed = (
        all(row["termination_rate"] == 1.0 and row["safety_rate"] == 1.0 for row in hybrid_rows)
        and all(row["termination_rate"] == 0.0 and row["safety_rate"] == 1.0 for row in control_rows)
    )
    report.add_note(
        "hybrid algorithms terminate with a crashed majority; the message-passing control never "
        "terminates under the same number of crashes but never violates safety (indulgence)."
    )
    return report
