"""The named scenario library: CLI-referencable, fingerprintable scenarios.

Each entry is a builder ``(n, intensity) -> Scenario`` so the same name
yields a concrete scenario for any system size, with one ``intensity`` knob
in ``[0, 1]`` scaling how hard the adversary hits (drop probabilities,
window lengths, slowdown magnitudes).  Experiment e9 sweeps the library
over intensities; ``python -m repro run e9 --scenario <name>`` restricts it
to one entry.

Every library scenario must keep the safety half of the paper's guarantees
intact -- agreement and validity at 100% is what e9 (and the
``examples/adversary_tour.py`` smoke gate) assert.  Builders that lose
messages (``lossy-links``, ``partition-drop``, ``chaos``) void the
termination guarantee; the others are liveness-preserving.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from .faults import (
    CrashRecovery,
    MessageDuplication,
    MessageOmission,
    MessageReordering,
    Outage,
    PartitionWindow,
    ProcessSlowdown,
)
from .scenario import Scenario

#: A table entry: ``builder(n, intensity) -> Scenario``.
ScenarioBuilder = Callable[[int, float], Scenario]


def scenario_names() -> List[str]:
    """Every library scenario name, sorted."""
    return sorted(SCENARIOS)


def build_scenario(name: str, n: int, intensity: float = 0.2) -> Scenario:
    """Instantiate the named library scenario for an ``n``-process system.

    ``intensity`` in ``[0, 1]`` scales the scenario's severity; 0 yields a
    scenario whose faults are as mild as the primitives allow (windows of
    minimal length, probabilities of 0), which for every library entry is
    behaviourally fault-free.
    """
    return build_named(SCENARIOS, name, n, intensity)


def build_named(
    builders: Mapping[str, ScenarioBuilder],
    name: str,
    n: int,
    intensity: float,
    kind: str = "scenario",
) -> Scenario:
    """Look ``name`` up in ``builders`` and build it, checking the arguments.

    The one lookup behind :func:`build_scenario` and
    :func:`~repro.adversary.adaptive.build_adaptive_scenario`; ``kind``
    names the table in the errors.
    """
    try:
        builder = builders[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; choose from {sorted(builders)}") from None
    if n < 2:
        raise ValueError(f"{kind}s need at least 2 processes, got n={n}")
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    return builder(n, intensity)


def _minority(n: int) -> List[int]:
    """The largest set of low pids that is *not* a strict majority of ``n``."""
    return list(range(n // 2))


def halves(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split ``0..n-1`` into two non-empty contiguous groups (majority first)."""
    cut = min(n - 1, n // 2 + 1)
    return tuple(range(cut)), tuple(range(cut, n))


def _none(n: int, intensity: float) -> Scenario:
    return Scenario("none", ())


def _lossy_links(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("lossy-links", ())
    return Scenario("lossy-links", (MessageOmission(probability=intensity),))


def _duplication_storm(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("duplication-storm", ())
    return Scenario("duplication-storm", (MessageDuplication(probability=intensity, copies=2),))


def _reorder_heavy(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("reorder-heavy", ())
    return Scenario(
        "reorder-heavy", (MessageReordering(probability=intensity, inflation=10.0),)
    )


def _partition_heal(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("partition-heal", ())
    left, right = halves(n)
    window = PartitionWindow(
        groups=(left, right), start=1.0, end=1.0 + 30.0 * intensity, mode="heal"
    )
    return Scenario("partition-heal", (window,))


def _partition_drop(n: int, intensity: float) -> Scenario:
    if intensity == 0.0:
        return Scenario("partition-drop", ())
    left, right = halves(n)
    window = PartitionWindow(
        groups=(left, right), start=1.0, end=1.0 + 30.0 * intensity, mode="drop"
    )
    return Scenario("partition-drop", (window,))


def _slow_minority(n: int, intensity: float) -> Scenario:
    victims = _minority(n)
    if not victims or intensity == 0.0:
        return Scenario("slow-minority", ())
    return Scenario(
        "slow-minority", (ProcessSlowdown(pids=tuple(victims), extra_delay=5.0 * intensity),)
    )


def _crash_recovery(n: int, intensity: float) -> Scenario:
    victims = _minority(n)
    if not victims or intensity == 0.0:
        return Scenario("crash-recovery", ())
    outages = tuple(
        Outage(pid=pid, down_at=1.0 + 0.5 * index, up_at=1.5 + 0.5 * index + 20.0 * intensity)
        for index, pid in enumerate(victims)
    )
    return Scenario("crash-recovery", (CrashRecovery(outages),))


def _chaos(n: int, intensity: float) -> Scenario:
    """Everything at once (scaled down so runs still end quickly)."""
    if intensity == 0.0:
        return Scenario("chaos", ())
    left, right = halves(n)
    faults = [
        MessageReordering(probability=intensity / 2, inflation=5.0),
        PartitionWindow(groups=(left, right), start=2.0, end=2.0 + 10.0 * intensity),
        MessageOmission(probability=intensity / 2),
        MessageDuplication(probability=intensity / 2, copies=1),
    ]
    victims = _minority(n)
    if victims:
        faults.append(
            CrashRecovery((Outage(pid=victims[0], down_at=1.0, up_at=2.0 + 10.0 * intensity),))
        )
    return Scenario("chaos", tuple(faults))


#: Every library scenario by name.  e9 sweeps exactly these, so a new name
#: here changes e9's default plan and its fingerprint.
SCENARIOS: Dict[str, ScenarioBuilder] = {
    "none": _none,
    "lossy-links": _lossy_links,
    "duplication-storm": _duplication_storm,
    "reorder-heavy": _reorder_heavy,
    "partition-heal": _partition_heal,
    "partition-drop": _partition_drop,
    "slow-minority": _slow_minority,
    "crash-recovery": _crash_recovery,
    "chaos": _chaos,
}
