"""The schedule explorer: replayable controllers and bounded DFS.

The kernel dispatches queue entries in ``(time, sequence)`` order; whenever
several entries share the head's virtual timestamp, that order is one of
many the asynchronous model allows.  A
:class:`ReplayController` installed through
:meth:`~repro.sim.kernel.SimulationKernel.install_schedule_controller`
turns each such tie into an explicit decision: it replays a fixed choice
prefix, takes the default (sequence order) beyond it, and records the
fanout it saw at every decision -- exactly the bookkeeping a stateless
systematic search needs.

:func:`search` runs a bounded depth-first exploration over choice
prefixes: every executed schedule spawns one frontier node per untaken
alternative at each decision past its prefix, so no two executions repeat
a schedule, and the whole space up to ``max_decisions`` decisions (fanout
capped at ``fanout_cap``) is enumerated as budget allows.  Agreement and
validity are re-verified after every schedule; the first violation is
returned as a deterministic *replay token*.

Token format (version-prefixed, slash-separated)::

    v1/<algorithm>/n<n>/s<seed>/<proposals>/<choices>

where ``<proposals>`` is a named pattern from
:data:`~repro.harness.workloads.PROPOSAL_PATTERNS` and ``<choices>`` is
the dot-joined decision list (``-`` when empty), e.g.
``v1/planted-ben-or/n4/s0/one-dissenter/0.2.1``.  :func:`replay_token`
re-executes the exact schedule, making any token a committable regression
test.
"""

from __future__ import annotations

import time as _time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterTopology
from ..core.base import ProtocolInvariantError
from ..core.properties import verify_run
from ..harness.config import ALGORITHMS, ExperimentConfig
from ..harness.runner import prepare_consensus
from ..network.delays import ConstantDelay
from ..sim.config import SimConfig

#: The non-harness algorithms the search can target (classes in planted.py).
PLANTED_ALGORITHMS = ("planted-ben-or",)

_TOKEN_VERSION = "v1"


class ReplayController:
    """A schedule controller that replays a choice prefix, default-0 beyond.

    ``choices[i]`` is the index to dispatch at the ``i``-th tie the kernel
    offers; once the prefix is exhausted every further tie takes index 0,
    which is the kernel's native sequence order -- so the empty prefix
    reproduces the uncontrolled execution exactly.  Out-of-range choices
    are clamped to the last tied entry (a prefix recorded against one
    schedule stays executable when an earlier divergence shrank a later
    fanout).  The controller records the ``trail`` of indices actually
    taken and the ``fanouts`` it saw, which is what the explorer expands.
    """

    def __init__(self, choices: Sequence[int] = ()) -> None:
        self._choices = list(choices)
        self.trail: List[int] = []
        self.fanouts: List[int] = []

    def choose(self, now: float, time: float, entries: Sequence[tuple]) -> int:
        cursor = len(self.trail)
        fanout = len(entries)
        index = self._choices[cursor] if cursor < len(self._choices) else 0
        if index >= fanout:
            index = fanout - 1
        self.trail.append(index)
        self.fanouts.append(fanout)
        return index


@dataclass(frozen=True)
class SearchSpec:
    """One searchable configuration: algorithm, system size, seed, bounds.

    ``delay`` is the constant message delay and ``scheduling_jitter`` is
    forced to 0 -- determinism aside, collapsing all timing randomness
    makes simultaneous events (and therefore schedule choice points)
    abundant, which is where the search gets its leverage.
    """

    algorithm: str = "ben-or"
    n: int = 4
    seed: int = 0
    m: Optional[int] = None
    max_rounds: int = 20
    max_time: float = 1e4
    delay: float = 1.0
    #: Named proposal pattern.  "one-dissenter" is the default hunting
    #: workload: it puts the system one estimate away from unanimity, the
    #: regime where schedule choice decides which majorities form.
    proposals: str = "one-dissenter"

    def __post_init__(self) -> None:
        known = ALGORITHMS + PLANTED_ALGORITHMS
        if self.algorithm not in known:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {known}")
        if self.n < 2:
            raise ValueError(f"search needs at least 2 processes, got n={self.n}")
        if not isinstance(self.proposals, str) or "/" in self.proposals:
            raise ValueError(
                f"search proposals must be a named pattern (token-safe), got {self.proposals!r}"
            )

    @property
    def clusters(self) -> int:
        """The cluster count: explicit ``m`` or the algorithm's default.

        The shared-memory baseline is only defined for a single cluster;
        everything else gets a balanced multi-cluster split.
        """
        if self.m is not None:
            return self.m
        if self.algorithm == "shared-memory":
            return 1
        return max(2, self.n // 2)

    def sim_config(self) -> SimConfig:
        return SimConfig(
            max_rounds=self.max_rounds,
            max_time=self.max_time,
            scheduling_jitter=0.0,
        )

    def topology(self) -> ClusterTopology:
        return ClusterTopology.even_split(self.n, self.clusters)


@dataclass
class ScheduleResult:
    """The outcome of executing one fully specified schedule."""

    spec: SearchSpec
    choices: Tuple[int, ...]
    trail: Tuple[int, ...]
    fanouts: Tuple[int, ...]
    violation: Optional[str] = None
    decisions: dict = field(default_factory=dict)

    @property
    def token(self) -> str:
        return format_token(self.spec, self.choices)


@dataclass
class SearchOutcome:
    """What a bounded search found (or exhausted)."""

    spec: SearchSpec
    runs: int
    violation: Optional[str] = None
    token: Optional[str] = None
    #: The frontier ran empty before the run or wall budget did.
    drained: bool = False
    #: Alternatives the DFS saw but never pushed: those past ``fanout_cap``
    #: at a decision, and every alternative at a decision deeper than
    #: ``max_decisions``.
    alternatives_cut: int = 0
    #: Executed schedules by depth: the number of tie decisions each made.
    depth_histogram: Dict[int, int] = field(default_factory=dict)
    #: The tie decisions of every executed schedule, by fanout: how many
    #: entries shared the head's timestamp.
    fanout_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.violation is not None

    @property
    def coverage(self) -> str:
        """The two histograms as one line, e.g. ``depths 9:2 12:1; fanouts 2:21 3:4``."""

        def row(histogram: Dict[int, int]) -> str:
            return " ".join(f"{key}:{count}" for key, count in histogram.items()) or "-"

        return f"depths {row(self.depth_histogram)}; fanouts {row(self.fanout_histogram)}"

    @property
    def exhausted(self) -> bool:
        """Every schedule of the space ran: drained, and nothing was cut."""
        return self.drained and self.alternatives_cut == 0


def format_token(spec: SearchSpec, choices: Sequence[int]) -> str:
    """Serialise one schedule as a replay token."""
    body = ".".join(str(choice) for choice in choices) or "-"
    return f"{_TOKEN_VERSION}/{spec.algorithm}/n{spec.n}/s{spec.seed}/{spec.proposals}/{body}"


def parse_token(token: str) -> Tuple[SearchSpec, Tuple[int, ...]]:
    """Parse a replay token back into its spec and choice sequence."""
    parts = token.strip().split("/")
    if len(parts) != 6 or parts[0] != _TOKEN_VERSION:
        raise ValueError(
            f"malformed replay token {token!r}; expected "
            f"{_TOKEN_VERSION}/<algorithm>/n<n>/s<seed>/<proposals>/<choices>"
        )
    _, algorithm, n_part, seed_part, proposals, body = parts
    if not n_part.startswith("n") or not seed_part.startswith("s"):
        raise ValueError(f"malformed replay token {token!r}")
    try:
        n = int(n_part[1:])
        seed = int(seed_part[1:])
        choices = () if body == "-" else tuple(int(piece) for piece in body.split("."))
    except ValueError as error:
        raise ValueError(f"malformed replay token {token!r}") from error
    if any(choice < 0 for choice in choices):
        raise ValueError(f"replay token {token!r} holds a negative choice")
    return SearchSpec(algorithm=algorithm, n=n, seed=seed, proposals=proposals), choices


def _prepare(spec: SearchSpec):
    """Wire one un-stepped run: ``(kernel, proposals, topology)``.

    A planted variant is wired as the Ben-Or it breaks: the harness builds
    the same network, seed streams and coins and runs the variant's class.
    """
    algorithm, algorithm_class = spec.algorithm, None
    if algorithm in PLANTED_ALGORITHMS:
        from .planted import PlantedBenOrConsensus

        algorithm, algorithm_class = "ben-or", PlantedBenOrConsensus
    config = ExperimentConfig(
        topology=spec.topology(),
        algorithm=algorithm,
        proposals=spec.proposals,
        seed=spec.seed,
        delay_model=ConstantDelay(spec.delay),
        sim=spec.sim_config(),
    )
    prepared = prepare_consensus(config, algorithm_class=algorithm_class)
    return prepared.kernel, prepared.proposals, config.topology


def run_schedule(spec: SearchSpec, choices: Sequence[int] = ()) -> ScheduleResult:
    """Execute one schedule and re-verify the safety properties.

    The schedule is fully determined by ``(spec, choices)``: the seed fixes
    every payload and coin flip, the choices fix every tie-break, so the
    same call always reproduces the same execution.  Only *safety* is
    judged -- a schedule that merely fails to terminate inside the round
    cap is not a violation (the search deliberately starves quorums), but
    disagreement, an invalid decision, or a
    :class:`~repro.core.base.ProtocolInvariantError` escaping the protocol
    is.
    """
    kernel, proposals, topology = _prepare(spec)
    controller = ReplayController(choices)
    kernel.install_schedule_controller(controller)
    try:
        sim_result = kernel.run()
    except ProtocolInvariantError as error:
        return ScheduleResult(
            spec=spec,
            choices=tuple(choices),
            trail=tuple(controller.trail),
            fanouts=tuple(controller.fanouts),
            violation=f"protocol invariant violated: {error}",
        )
    report = verify_run(sim_result, proposals, topology, termination_expected=False)
    violation = None if report.safety_ok else "; ".join(report.violations)
    return ScheduleResult(
        spec=spec,
        choices=tuple(choices),
        trail=tuple(controller.trail),
        fanouts=tuple(controller.fanouts),
        violation=violation,
        decisions=dict(sim_result.decisions),
    )


def replay_token(token: str) -> ScheduleResult:
    """Re-execute the schedule a token describes (the regression-test entry)."""
    spec, choices = parse_token(token)
    return run_schedule(spec, choices)


def search(
    spec: SearchSpec,
    budget: int = 200,
    fanout_cap: int = 4,
    max_decisions: int = 64,
    wall_budget: Optional[float] = None,
) -> SearchOutcome:
    """Bounded DFS over schedule prefixes, stopping at the first violation.

    ``budget`` caps the number of executed schedules, ``fanout_cap`` the
    alternatives expanded per decision, ``max_decisions`` how deep into a
    schedule new branches are opened, and ``wall_budget`` (seconds) the
    real time spent.  Every executed schedule expands the frontier with
    each untaken alternative at each decision beyond its own prefix
    (branch points are taken from the *executed* trail, so no schedule is
    ever run twice).  Returns the first violation's token, or a
    budget-spent or drained-frontier outcome with the run count and the
    number of alternatives the caps cut; the outcome is ``exhausted`` only
    when the frontier drained with none cut.  Every outcome carries the
    depth and fanout histograms of the schedules it executed.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if fanout_cap < 2:
        raise ValueError(f"fanout_cap must be >= 2, got {fanout_cap}")
    if max_decisions < 1:
        raise ValueError(f"max_decisions must be >= 1, got {max_decisions}")
    deadline = None if wall_budget is None else _time.monotonic() + wall_budget
    stack: List[Tuple[int, ...]] = [()]
    runs = 0
    cut = 0
    depths: Counter = Counter()
    fanouts: Counter = Counter()

    def outcome(**ending: Any) -> SearchOutcome:
        return SearchOutcome(
            spec=spec,
            runs=runs,
            alternatives_cut=cut,
            depth_histogram=dict(sorted(depths.items())),
            fanout_histogram=dict(sorted(fanouts.items())),
            **ending,
        )

    while stack:
        if runs >= budget or (deadline is not None and _time.monotonic() > deadline):
            return outcome()
        prefix = stack.pop()
        result = run_schedule(spec, prefix)
        runs += 1
        depths[len(result.trail)] += 1
        fanouts.update(result.fanouts)
        if result.violation is not None:
            return outcome(violation=result.violation, token=result.token)
        # Expand: one frontier node per untaken alternative at each decision
        # past this schedule's prefix.  Pushing deeper decisions first makes
        # the pop order depth-first from the shallowest divergence.  What
        # the caps keep out of the frontier is counted, never silently lost.
        limit = min(len(result.trail), max_decisions)
        cut += sum(fanout - 1 for fanout in result.fanouts[max(limit, len(prefix)) :])
        for depth in range(limit - 1, len(prefix) - 1, -1):
            fanout = min(result.fanouts[depth], fanout_cap)
            cut += result.fanouts[depth] - fanout
            base = result.trail[:depth]
            for choice in range(1, fanout):
                stack.append(base + (choice,))
    return outcome(drained=True)


def search_all(
    algorithms: Sequence[str],
    budget: int = 200,
    n: int = 4,
    seed: int = 0,
    fanout_cap: int = 4,
    max_decisions: int = 64,
    wall_budget: Optional[float] = None,
) -> List[SearchOutcome]:
    """Run :func:`search` for each algorithm, splitting any wall budget."""
    outcomes = []
    remaining = wall_budget
    for algorithm in algorithms:
        started = _time.monotonic()
        spec = SearchSpec(algorithm=algorithm, n=n, seed=seed)
        outcomes.append(
            search(
                spec,
                budget=budget,
                fanout_cap=fanout_cap,
                max_decisions=max_decisions,
                wall_budget=remaining,
            )
        )
        if remaining is not None:
            remaining = max(0.0, remaining - (_time.monotonic() - started))
    return outcomes


__all__ = [
    "PLANTED_ALGORITHMS",
    "ReplayController",
    "ScheduleResult",
    "SearchOutcome",
    "SearchSpec",
    "format_token",
    "parse_token",
    "replay_token",
    "run_schedule",
    "search",
    "search_all",
]
