"""E11 — Flaky-host resilience: empirical delays × crash–recovery ladders.

Every sweep so far samples *synthetic* delay distributions.  This
experiment drives the consensus algorithms over delay models fit from a
measured RTT sample set (:data:`repro.network.empirical.REFERENCE_RTT_MS`,
normalised to the simulator's unit-mean time scale) while a Cassandra-style
operational adversary kills replicas: a *kill-during-recovery* schedule
(a second host goes down while the first is still recovering) and a
*replica-loss ladder* that takes 1, 2, ... ``n // 2`` replicas down at
once, sweeping the surviving set toward the paper's majority boundary.
Every outage recovers, so the scenarios are liveness-preserving analogues
of the paper's crash/majority assumptions: safety must hold at 100%
everywhere and every run must still terminate -- the heavy empirical tail
and the stalled majority may only slow the decision, which the latency
columns quantify.

The scenario registry is local to this module (not
:mod:`repro.adversary.library`): adding names to e9's library would shift
e9's default plan fingerprint and orphan its recorded manifests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..adversary.faults import CrashRecovery, Outage
from ..adversary.scenario import Scenario
from ..cluster.topology import ClusterTopology
from ..harness.aggregate import RunAggregate
from ..harness.distributed import PlanPoint, SweepPlan
from ..harness.config import ExperimentConfig
from ..network.delays import DelayModel, UniformDelay
from ..network.empirical import (
    REFERENCE_RTT_MS,
    EmpiricalDelay,
    ShiftedLogNormalDelay,
    scale_to_unit_mean,
)
from ..sim.config import SimConfig
from .common import ExperimentReport, default_seeds

PAPER_CLAIM = (
    "Safety is unconditional and termination needs only a majority of correct "
    "processes: under delay distributions fit from real RTT measurements, replicas "
    "crashing and recovering -- even a second failure landing mid-recovery, even a "
    "transient loss of the majority itself -- can delay decisions but never produce "
    "disagreement, and once a majority is back every run still terminates."
)

#: The window every replica-loss outage occupies; recovery at ``t = 12`` is
#: well before the default round cap bites, so termination stays guaranteed.
_LOSS_DOWN_AT = 2.0
_LOSS_UP_AT = 12.0


def _none(n: int) -> Scenario:
    return Scenario("none", ())


def _kill_during_recovery(n: int) -> Scenario:
    """A second replica dies while the first is still down (SNIPPETS §2).

    The windows overlap *across* pids -- legal, only per-pid overlap is
    forbidden -- so during ``[6, 10)`` two of the ``n`` replicas are out at
    once, the worst moment of the Cassandra exemplar's node-kill test.
    """
    if n < 3:
        raise ValueError(f"kill-during-recovery needs n >= 3, got {n}")
    return Scenario(
        "kill-during-recovery",
        (
            CrashRecovery((Outage(pid=0, down_at=2.0, up_at=10.0),)),
            CrashRecovery((Outage(pid=1, down_at=6.0, up_at=14.0),)),
        ),
    )


def _replica_loss(k: int) -> Callable[[int], Scenario]:
    def build(n: int) -> Scenario:
        """Build the ``replica-loss-k`` schedule for an ``n``-process cluster."""
        if k > n // 2:
            raise ValueError(
                f"replica-loss-{k} would take down {k} of {n} replicas; the ladder "
                f"stops at n // 2 = {n // 2} so a majority can always return"
            )
        outages = tuple(
            Outage(pid=pid, down_at=_LOSS_DOWN_AT, up_at=_LOSS_UP_AT) for pid in range(k)
        )
        return Scenario(f"replica-loss-{k}", (CrashRecovery(outages),))

    return build


#: Maximum rung of the replica-loss ladder offered by name (the registry is
#: static so every host enumerates identical names; ``plan`` still rejects
#: rungs above ``n // 2`` for the topology actually swept).
MAX_REPLICA_LOSS = 3

_BUILDERS: Dict[str, Callable[[int], Scenario]] = {
    "none": _none,
    "kill-during-recovery": _kill_during_recovery,
    **{f"replica-loss-{k}": _replica_loss(k) for k in range(1, MAX_REPLICA_LOSS + 1)},
}

#: The scenario names ``--scenario`` accepts, all of which the default plan
#: sweeps.
SCENARIOS = tuple(sorted(_BUILDERS))


def resilience_scenario_names() -> List[str]:
    """Every resilience scenario name, sorted."""
    return list(SCENARIOS)


def build_resilience_scenario(name: str, n: int) -> Scenario:
    """Build a named resilience scenario for an ``n``-process cluster."""
    try:
        factory = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown resilience scenario {name!r}; choose from {resilience_scenario_names()}"
        ) from None
    return factory(n)


def _delay_catalog() -> Dict[str, DelayModel]:
    """The delay models swept by default, keyed by short name.

    Fit from the package-embedded reference RTT sample set (normalised to
    unit mean), so any host -- including a ``merge`` rebuilding the plan
    from module code plus manifest-recorded names -- constructs the
    bit-identical models.
    """
    unit = scale_to_unit_mean(REFERENCE_RTT_MS)
    return {
        "uniform": UniformDelay(),
        "empirical": EmpiricalDelay.fit(unit),
        "shifted-lognormal": ShiftedLogNormalDelay.fit(unit),
    }


def plan(
    seeds: Optional[Sequence[int]] = None,
    scenarios: Optional[Sequence[str]] = None,
    delays: Optional[Sequence[str]] = None,
    n: int = 6,
    m: int = 3,
    round_cap: int = 30,
    algorithm: str = "hybrid-local-coin",
) -> SweepPlan:
    """Enumerate the scenario × delay-model sweep.

    Scenario and delay names are normalised to sorted order so any host (or
    a later ``merge`` rebuilding the plan from manifest-recorded names)
    enumerates the identical plan; every outage schedule is fixed data and
    the fitted models are deterministic functions of the embedded reference
    samples, so the plan fingerprints like the synthetic sweeps.
    """
    seeds = list(seeds) if seeds is not None else default_seeds(10)
    names = sorted(set(scenarios if scenarios is not None else SCENARIOS))
    catalog = _delay_catalog()
    delay_keys = sorted(set(delays)) if delays is not None else sorted(catalog)
    for key in delay_keys:
        if key not in catalog:
            raise ValueError(f"unknown delay name {key!r}; choose from {sorted(catalog)}")
    topology = ClusterTopology.even_split(n, m)
    sim = SimConfig(max_rounds=round_cap, max_time=5e4)
    points = []
    for name in names:
        scenario = build_resilience_scenario(name, n=n)
        down = len({outage.pid for fault in scenario.faults for outage in fault.outages})
        for key in delay_keys:
            points.append(
                PlanPoint(
                    label=f"{name}/{key}",
                    config=ExperimentConfig(
                        topology=topology,
                        algorithm=algorithm,
                        proposals="split",
                        scenario=scenario,
                        delay_model=catalog[key],
                        sim=sim,
                    ),
                    check=False,
                    meta=dict(
                        scenario=name,
                        delay=key,
                        replicas_down=down,
                        min_survivors=n - down,
                        majority=n // 2 + 1,
                        liveness_preserving=scenario.liveness_preserving,
                    ),
                )
            )
    notes = [
        f"topology {topology.describe()}, algorithm {algorithm}, round cap {round_cap}; "
        f"delay models fit from the embedded reference RTT sample set "
        f"({len(REFERENCE_RTT_MS)} measurements, normalised to unit mean); every outage "
        f"recovers, so all scenarios are liveness-preserving -- safety and termination "
        f"must both hold at 100%."
    ]
    return SweepPlan(key="E11", seeds=seeds, points=points, experiment="e11", meta={"notes": notes})


def build_report(plan: SweepPlan, aggregates: Mapping[str, RunAggregate]) -> ExperimentReport:
    """Assemble the E11 report from per-point aggregates."""
    report = ExperimentReport(
        experiment_id="E11",
        title="Flaky-host resilience: empirical delays under crash-recovery ladders",
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
            mean_rounds=aggregate.mean("rounds_max"),
            mean_decision_time=aggregate.mean("decision_time_max"),
            max_decision_time=aggregate.maximum("decision_time_max"),
        )

    # Every scenario recovers to a full cluster, so both guarantees are
    # gated (unlike e9/e10, where message-losing strategies void liveness).
    report.passed = all(
        row["safety_rate"] == 1.0 and row["termination_rate"] == 1.0 for row in report.rows
    )
    return report
