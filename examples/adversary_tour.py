"""A tour of the fault-injection adversary: three scenarios, one safety gate.

Runs the hybrid local-coin algorithm against three library scenarios --
``lossy-links`` (omission faults), ``partition-drop`` (a network partition
that loses cross-partition messages), and ``crash-recovery`` (transient
outages) -- and prints, per scenario, what the adversary injected and what
it cost.  The paper's promise is that *safety* survives all of it:
agreement and validity must hold in every run, while termination may be
lost when messages are (by design) no longer reliably delivered.

The script exits nonzero if any run violates safety, which is what makes it
a CI smoke gate (``make examples-smoke``) and not just a demo.

Run with:  PYTHONPATH=src python examples/adversary_tour.py
"""

import sys

from repro.adversary import build_scenario
from repro.cluster.topology import ClusterTopology
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_consensus
from repro.sim.config import SimConfig

TOPOLOGY = ClusterTopology.even_split(6, 3)
SCENARIOS = ("lossy-links", "partition-drop", "crash-recovery")
INTENSITY = 0.4
SEEDS = range(8)


def tour_one(name: str) -> bool:
    """Run one scenario across the seeds; return whether safety held."""
    scenario = build_scenario(name, n=TOPOLOGY.n, intensity=INTENSITY)
    print(f"--- scenario {scenario.describe()} (intensity {INTENSITY:g}) ---")
    promise = "may only delay" if scenario.liveness_preserving else "may forfeit"
    print(f"    liveness: this adversary {promise} termination; safety must hold regardless")

    safe = True
    terminated = omitted = duplicated = 0
    for seed in SEEDS:
        result = run_consensus(
            ExperimentConfig(
                topology=TOPOLOGY,
                algorithm="hybrid-local-coin",
                proposals="split",
                seed=seed,
                sim=SimConfig(max_rounds=30, max_time=5e4),
                scenario=scenario,
            )
        )
        ok = result.report.agreement and result.report.validity
        safe &= ok
        terminated += 1 if result.terminated else 0
        omitted += result.metrics.messages_omitted
        duplicated += result.metrics.messages_duplicated
        if not ok:
            print(f"    seed {seed}: SAFETY VIOLATED -- {result.report.violations}")

    runs = len(list(SEEDS))
    print(f"    {runs} runs: terminated {terminated}/{runs}, "
          f"messages omitted {omitted}, duplicated {duplicated}, "
          f"safety {'100%' if safe else 'VIOLATED'}")
    return safe


def main() -> int:
    """Tour the three scenarios; exit 1 if any safety check fails."""
    print(f"Fault-injection tour on {TOPOLOGY.describe()}, algorithm hybrid-local-coin\n")
    all_safe = all([tour_one(name) for name in SCENARIOS])
    if not all_safe:
        print("\nFAILED: a fault scenario broke agreement or validity")
        return 1
    print("\nAll scenarios preserved agreement and validity -- the adversary can "
          "starve progress,\nbut it cannot make the algorithms lie.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
