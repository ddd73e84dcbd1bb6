"""E3 — The "one for all and all for one" property of the communication pattern.

A message received from one member of a cluster is attributed to every member
of that cluster.  Consequently, crashing all members of every cluster except
one leaves the message-exchange pattern (and hence the consensus algorithms)
behaving as if nobody had crashed: the survivors still gather majority
coverage and terminate, with essentially the same number of rounds as in the
failure-free execution.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "If all processes of a cluster crash except one, the surviving process acts as if all the "
    "processes of its cluster were alive ('one for all and all for one'); the algorithms "
    "terminate whenever the clusters keeping one correct process cover a strict majority."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    n: int = 9,
    m: int = 3,
    algorithms: Sequence[str] = ("hybrid-local-coin", "hybrid-common-coin"),
) -> SweepPlan:
    """Enumerate failure-free vs 'one survivor per cluster' runs."""
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    topology = ClusterTopology.even_split(n, m)

    lone_survivors = FailurePattern.none()
    for index in range(topology.m):
        lone_survivors = lone_survivors.merged_with(
            FailurePattern.crash_all_but_one_in_cluster(topology, index)
        )
    scenarios = {
        "failure-free": FailurePattern.none(),
        "one-survivor-per-cluster": lone_survivors,
    }
    notes = [
        f"topology {topology.describe()}; the survivor scenario crashes "
        f"{lone_survivors.crash_count()} of {n} processes "
        f"({'a majority' if lone_survivors.crashes_majority(n) else 'a minority'})"
    ]
    points = []
    for algorithm in algorithms:
        for scenario_name, pattern in scenarios.items():
            points.append(
                PlanPoint(
                    label=f"{algorithm}/{scenario_name}",
                    config=ExperimentConfig(
                        topology=topology,
                        algorithm=algorithm,
                        proposals="split",
                        failure_pattern=pattern,
                    ),
                    check=True,
                    meta=dict(
                        algorithm=algorithm,
                        scenario=scenario_name,
                        crashed=pattern.crash_count(),
                    ),
                )
            )
    return SweepPlan(
        key="E3",
        seeds=seeds,
        points=points,
        experiment="e3",
        meta={"notes": notes, "algorithms": list(algorithms)},
    )


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E3 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E3",
        title="One survivor per cluster behaves like a full cluster",
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
        )

    # The reproduction check: survivors always terminate, and their round count
    # stays in the same ballpark as the failure-free runs (within a factor 3).
    passed = True
    for algorithm in plan.meta["algorithms"]:
        free = report.row_where(algorithm=algorithm, scenario="failure-free")
        lone = report.row_where(algorithm=algorithm, scenario="one-survivor-per-cluster")
        if lone["termination_rate"] != 1.0 or free["termination_rate"] != 1.0:
            passed = False
        if lone["mean_rounds"] > 3 * max(free["mean_rounds"], 1.0):
            passed = False
    report.passed = passed
    return report
