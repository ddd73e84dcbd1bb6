"""Fault-injection adversaries: declarative scenarios for robustness testing.

The paper proves its algorithms safe under *any* asynchronous adversary;
this package lets the simulator actually play one.  A
:class:`~repro.adversary.scenario.Scenario` composes fault primitives from
one closed set (:data:`~repro.adversary.faults.FAULT_TYPES`) -- message
omission, duplication, reordering, corruption, partition windows,
per-process slowdowns, crash-recovery outages, and the adaptive strategies
delay-pivotal, target-coin and split-rounds, which condition their
decisions on the observed execution.  One per-run
:class:`~repro.adversary.scenario.Adversary` injects them all
deterministically through three narrow kernel hooks: message-send time
(omission, duplication, reordering, partitions, corruption), event-dispatch
time (slowdowns, then the adaptive strategies), and scheduled
pause/recover events (crash-recovery outages).

Scenarios are plain picklable data with stable reprs, so they ride inside
:class:`~repro.harness.config.ExperimentConfig`, enter sweep-plan
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
        "adaptive": ["adaptive_scenario_names", "build_adaptive_scenario"],
        "faults": [
            "FAULT_TYPES", "CrashRecovery", "DelayPivotal", "LinkFault", "MessageCorruption",
            "MessageDuplication", "MessageOmission", "MessageReordering", "Outage",
            "PartitionWindow", "ProcessSlowdown", "SplitRounds", "TamperedPayload", "TargetCoin",
        ],
        "library": ["build_scenario", "scenario_names"],
        "scenario": ["Adversary", "Scenario"],
    },
)
