"""Fault-injection adversaries: declarative scenarios for robustness testing.

The paper proves its algorithms safe under *any* asynchronous adversary;
this package lets the simulator actually play one.  A
:class:`~repro.adversary.scenario.Scenario` composes declarative fault
primitives -- message omission, duplication, reordering, corruption,
partition windows, per-process slowdowns and crash-recovery outages -- and
a per-run :class:`~repro.adversary.scenario.Adversary` injects them
deterministically through three narrow kernel hooks: message-send time
(omission, duplication, reordering, partitions, corruption), event-dispatch
time (slowdowns), and scheduled pause/recover events (crash-recovery
outages).

On top of the declarative primitives, :mod:`~repro.adversary.adaptive`
adds *adaptive* strategies that condition their fault decisions on the
observed execution (delay-pivotal, target-coin, split-rounds) through the
same hooks; :func:`~repro.adversary.adaptive.build_adversary` picks the
right engine for a scenario.

Scenarios are plain picklable data with stable reprs, so they ride inside
:class:`~repro.harness.runner.ExperimentConfig`, enter sweep-plan
fingerprints, and keep sharded adversarial sweeps bit-identical to
single-host ones.  The named table in :mod:`~repro.adversary.library`
makes scenarios referencable from the CLI
(``python -m repro run e9 --scenario lossy-links``); the adaptive table in
:mod:`~repro.adversary.adaptive` does the same for e10.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "adaptive": [
            "ADAPTIVE_FAULT_TYPES", "AdaptiveAdversary", "DelayPivotal", "SplitRounds",
            "TargetCoin", "adaptive_scenario_names", "build_adaptive_scenario",
            "build_adversary",
        ],
        "faults": [
            "FAULT_TYPES", "CrashRecovery", "LinkFault", "MessageCorruption",
            "MessageDuplication", "MessageOmission", "MessageReordering", "Outage",
            "PartitionWindow", "ProcessSlowdown", "TamperedPayload", "register_fault_type",
        ],
        "library": ["build_scenario", "scenario_names"],
        "scenario": ["Adversary", "Scenario"],
    },
)
