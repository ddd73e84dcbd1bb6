"""E8L — large-n scalability.

E8's scalability sweep pushed to n ∈ {256, 512, 1024, 2048}, where one run
holds millions of events and up to ~2.8 GB (see ``docs/scaling.md``); with
``--max-workers K`` each of K processes holds one run at a time.  Only the
layout extremes run: m=1 at every n, m=2 up to :data:`MULTI_CLUSTER_MAX_N`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from .common import ExperimentReport, default_seeds

#: The large-n curve: the "millions of users" story starts with the simulator
#: not choking at n=1000, so the sweep reaches into the thousands.
DEFAULT_SIZES = (256, 512, 1024, 2048)

#: Largest n that still gets the multi-cluster layout; above this bound only
#: the single-cluster extreme runs.  Splitting n processes over m clusters
#: multiplies the message volume (the split layout needs 2-4 rounds where
#: m=1 decides in one), and wall clock follows events: re-measured with the
#: incremental inbox index of ``msg_exchange``, n=512/m=2 takes 16-29s per
#: run (2.0-3.1M events) vs 5-6s for n=512/m=1 (0.8M events).  The bound was
#: set when every delivery re-scanned the whole mailbox and the same point
#: took 113-340s on the same host; it is kept because the e8l plan -- its
#: fingerprint and the golden fixture -- is pinned to it, not because
#: larger split points are unaffordable any more.
MULTI_CLUSTER_MAX_N = 256

PAPER_CLAIM = (
    "Scalability extrapolated: the single-cluster (shared-memory-heavy) "
    "extreme keeps its efficiency advantage as n grows into the thousands -- "
    "strictly fewer messages than the split layout at every n, with a "
    "shared-memory cost that grows with n instead -- which is the "
    "introduction's 'shared memory is efficient but does not scale, message "
    "passing scales but is less efficient' trade-off at system sizes the "
    "small-n sweep (E8) cannot reach."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    algorithm: str = "hybrid-local-coin",
) -> SweepPlan:
    """Enumerate the large-n scalability sweep.

    Two repetitions per point by default (a run at n=2048 is millions of
    events; the curve's shape, not its error bars, is the deliverable) and
    only the m=1 / m=2 layout extremes, with m=2 capped at
    :data:`MULTI_CLUSTER_MAX_N` -- see the constant's rationale.
    """
    seeds = list(seeds) if seeds is not None else default_seeds(2)
    points = []
    for n in sizes:
        layouts: Dict[str, ClusterTopology] = {"m=1": ClusterTopology.single_cluster(n)}
        if n <= MULTI_CLUSTER_MAX_N:
            layouts["m=2"] = ClusterTopology.even_split(n, 2)
        for layout_name, topology in layouts.items():
            points.append(
                PlanPoint(
                    label=f"n={n}/{layout_name}",
                    config=ExperimentConfig(
                        topology=topology, algorithm=algorithm, proposals="split"
                    ),
                    check=True,
                    meta=dict(n=n, layout=layout_name, m=topology.m),
                )
            )
    return SweepPlan(
        key="E8L", seeds=seeds, points=points, experiment="e8l", meta={"sizes": list(sizes)}
    )


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the large-n report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E8L",
        title="Large-n scalability",
        paper_claim=PAPER_CLAIM,
    )
    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            mean_messages=aggregate.mean("messages_sent"),
            mean_sm_ops=aggregate.mean("sm_ops"),
            mean_rounds=aggregate.mean("rounds_max"),
            mean_decision_time=aggregate.mean("decision_time_max"),
        )
    # Reproduction checks: every point terminated safely (the aggregates were
    # built with check=True, so reaching here already implies safety); at
    # every n that has both layouts the m=1 extreme is strictly cheaper in
    # messages than the split layout; and the m=1 shared-memory cost grows
    # monotonically with n -- efficiency that does not scale, at scale.
    passed = True
    single_rows = [row for row in report.rows if row["layout"] == "m=1"]
    for single in single_rows:
        split = next(
            (r for r in report.rows if r["layout"] == "m=2" and r["n"] == single["n"]),
            None,
        )
        if split is not None and single["mean_messages"] >= split["mean_messages"]:
            passed = False
    sm_costs = [row["mean_sm_ops"] for row in single_rows]
    if sm_costs != sorted(sm_costs):
        passed = False
    report.passed = passed
    return report
