"""E8 — Figure 2 and the scalability/efficiency trade-off.

Two parts:

1. **Figure 2** -- rebuild the paper's uniform m&m shared-memory domain on
   five processes and check the derived domain ``S`` against the appendix
   (``S1={p1,p2}``, ``S2={p1,p2,p3}``, ``S3={p2,p3,p4,p5}``, ``S4=S5={p3,p4,p5}``).

2. **Scalability sweep** -- the trade-off the introduction motivates: shared
   memory is efficient but does not scale, message passing scales but is less
   efficient.  Sweep the system size ``n`` and the cluster layout from
   ``m = 1`` (all shared memory) to ``m = n`` (all message passing), and
   measure messages, shared-memory operations and virtual decision latency.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..mm.domain import SharedMemoryDomain
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "Figure 2 / appendix: the uniform domain of the 5-process example is "
    "{{p1,p2},{p1,p2,p3},{p2,p3,p4,p5},{p3,p4,p5}}.  Scalability trade-off: intra-cluster "
    "agreement is efficient but does not scale; message-passing agreement scales but is less "
    "efficient, so messages decrease and shared-memory operations increase as clusters grow."
)

#: The appendix's expected domain, in 0-based process ids.
FIGURE2_EXPECTED_DOMAIN = frozenset(
    {
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3, 4}),
        frozenset({2, 3, 4}),
    }
)


def figure2_domain_matches() -> bool:
    """Whether the reconstructed Figure 2 domain equals the appendix's."""
    return SharedMemoryDomain.figure2().domain() == FIGURE2_EXPECTED_DOMAIN


def plan(
    seeds: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = (4, 8, 12, 16),
    algorithm: str = "hybrid-local-coin",
) -> SweepPlan:
    """Enumerate the n x cluster-layout scalability sweep."""
    seeds = list(seeds) if seeds is not None else default_seeds(8)
    points = []
    for n in sizes:
        layouts: Dict[str, ClusterTopology] = {
            "m=1": ClusterTopology.single_cluster(n),
            "m=2": ClusterTopology.even_split(n, 2),
            "m=n/2": ClusterTopology.even_split(n, max(2, n // 2)),
            "m=n": ClusterTopology.singleton_clusters(n),
        }
        for layout_name, topology in layouts.items():
            points.append(
                PlanPoint(
                    label=f"n={n}/{layout_name}",
                    config=ExperimentConfig(topology=topology, algorithm=algorithm, proposals="split"),
                    check=True,
                    meta=dict(n=n, layout=layout_name, m=topology.m),
                )
            )
    return SweepPlan(
        key="E8", seeds=seeds, points=points, experiment="e8", meta={"sizes": list(sizes)}
    )


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E8 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E8",
        title="Figure 2 domain and the scalability trade-off",
        paper_claim=PAPER_CLAIM,
    )
    domain = SharedMemoryDomain.figure2()
    figure2_ok = figure2_domain_matches()
    report.add_note(f"figure-2 domain reconstructed: {domain.describe()}")
    report.add_note(f"figure-2 domain matches the appendix: {figure2_ok}")

    for point in plan.points:
        aggregate = aggregates[point.label]
        report.add_row(
            **point.meta,
            mean_messages=aggregate.mean("messages_sent"),
            mean_sm_ops=aggregate.mean("sm_ops"),
            mean_rounds=aggregate.mean("rounds_max"),
            mean_decision_time=aggregate.mean("decision_time_max"),
        )

    # Reproduction checks: the Figure 2 domain matches, and for every n the
    # m=1 layout needs fewer messages and fewer rounds than the m=n layout
    # (shared memory is the efficient extreme), while m=n needs fewer
    # shared-memory operations per run than m=1 needs messages -- i.e. the
    # two resources trade off monotonically at the extremes.
    passed = figure2_ok
    for n in plan.meta["sizes"]:
        single = report.row_where(n=n, layout="m=1")
        singleton = report.row_where(n=n, layout="m=n")
        if single["mean_messages"] > singleton["mean_messages"]:
            passed = False
        if single["mean_rounds"] > singleton["mean_rounds"]:
            passed = False
    report.passed = passed
    return report
