"""E5 — Comparison with the m&m communication model (Section III-C).

The paper contrasts its cluster-based hybrid model with the m&m model of
Aguilera et al. on the shared-memory cost per phase of a round:

* consensus objects accessed system-wide per phase: ``m`` (one per cluster)
  in the hybrid model vs ``n`` (one per process-centred memory) in m&m;
* consensus-object invocations per process per phase: exactly ``1`` in the
  hybrid model vs ``α_i + 1`` (own memory plus each neighbour's) in m&m.

The experiment runs Algorithm 2 and the m&m analogue on matched sharing
structures (the m&m neighbourhood graph is derived from the cluster
topology, so ``α_i + 1`` equals the cluster size of ``p_i``) and reports the
measured per-phase counts next to the model predictions.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..harness.stats import mean as _mean
from ..mm.domain import SharedMemoryDomain
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "Per phase of a round, the hybrid model touches m shared-memory consensus objects and each "
    "process invokes exactly 1, whereas the m&m model touches n objects and each process p_i "
    "invokes α_i + 1 of them; moreover the m&m model cannot provide the one-for-all attribution."
)


def plan(
    seeds: Optional[Sequence[int]] = None,
    sizes: Sequence[int] = (8, 12),
    cluster_counts: Sequence[int] = (2, 4),
) -> SweepPlan:
    """Enumerate hybrid vs m&m runs on matched sharing structures."""
    seeds = list(seeds) if seeds is not None else default_seeds(8)
    points = []
    for n in sizes:
        for m in cluster_counts:
            if m > n:
                continue
            topology = ClusterTopology.even_split(n, m)
            domain = SharedMemoryDomain.from_cluster_topology(topology)
            predicted_mm_invocations = _mean(
                [domain.degree(pid) + 1 for pid in domain.process_ids()]
            )
            configs = {
                "hybrid-local-coin": ExperimentConfig(
                    topology=topology, algorithm="hybrid-local-coin", proposals="split"
                ),
                "mm-local-coin": ExperimentConfig(
                    topology=topology, algorithm="mm-local-coin", proposals="split", mm_domain=domain
                ),
            }
            for label, config in configs.items():
                hybrid = label.startswith("hybrid")
                points.append(
                    PlanPoint(
                        label=f"n={n},m={m}/{label}",
                        config=config,
                        check=True,
                        meta=dict(
                            n=n,
                            m=m,
                            model=label,
                            predicted_objects=float(topology.m if hybrid else topology.n),
                            predicted_invocations=1.0 if hybrid else predicted_mm_invocations,
                        ),
                    )
                )
    return SweepPlan(key="E5", seeds=seeds, points=points, experiment="e5")


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E5 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E5",
        title="Hybrid model vs m&m model: shared-memory cost per phase",
        paper_claim=PAPER_CLAIM,
    )
    for point in plan.points:
        aggregate = aggregates[point.label]
        meta = point.meta
        report.add_row(
            n=meta["n"],
            m=meta["m"],
            model=meta["model"],
            objects_per_phase=aggregate.mean("consensus_objects_per_phase"),
            predicted_objects_per_phase=meta["predicted_objects"],
            invocations_per_process_per_phase=aggregate.mean(
                "invocations_per_process_per_phase"
            ),
            predicted_invocations_per_process=meta["predicted_invocations"],
            mean_rounds=aggregate.mean("rounds_max"),
            mean_messages=aggregate.mean("messages_sent"),
        )

    # The measured per-phase counts should match the model predictions to
    # within 25% (slow processes may not touch the last round's objects).
    passed = True
    for row in report.rows:
        for measured_key, predicted_key in (
            ("objects_per_phase", "predicted_objects_per_phase"),
            ("invocations_per_process_per_phase", "predicted_invocations_per_process"),
        ):
            predicted = row[predicted_key]
            measured = row[measured_key]
            if predicted > 0 and abs(measured - predicted) > 0.25 * predicted:
                passed = False
    report.passed = passed
    return report
