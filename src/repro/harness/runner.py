"""The experiment runner: wire substrates and algorithms, run, verify, measure.

``run_consensus(ExperimentConfig(...))`` is the single entry point used by
the examples, the integration tests and the benchmark harness.  It builds a
seeded simulation (network, cluster memories, coins), instantiates one
algorithm object per process, installs the crash pattern, runs the kernel to
completion, checks the consensus properties and returns the collected
metrics.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..adversary.adaptive import build_adversary
from ..adversary.scenario import Scenario
from ..baselines.ben_or import BenOrConsensus
from ..baselines.mp_common_coin import MessagePassingCommonCoinConsensus
from ..baselines.shared_memory_only import SharedMemoryConsensus
from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..coins.common import CommonCoin
from ..coins.local import LocalCoin
from ..core.base import ProcessEnvironment
from ..core.common_coin import CommonCoinConsensus
from ..core.local_coin import LocalCoinConsensus
from ..core.properties import PropertyReport, verify_run
from ..mm.consensus import MMConsensus
from ..mm.domain import SharedMemoryDomain
from ..mm.memory import build_mm_memories
from ..network.delays import DelayModel, UniformDelay
from ..network.transport import Network
from ..sharedmem.memory import ClusterSharedMemory, build_cluster_memories
from ..sim.kernel import SimConfig, SimulationKernel, SimulationResult
from ..sim.rng import RandomSource
from .metrics import RunMetrics, collect_metrics
from .workloads import ProposalSpec, resolve_proposals

#: Algorithms runnable through the harness, with their requirements.
ALGORITHMS = (
    "hybrid-local-coin",
    "hybrid-common-coin",
    "ben-or",
    "mp-common-coin",
    "shared-memory",
    "mm-local-coin",
)

#: Algorithms whose termination only needs the paper's cluster condition.
_CLUSTER_CONDITION_ALGORITHMS = {"hybrid-local-coin", "hybrid-common-coin"}
#: Algorithms that need a strict majority of correct processes.
_MAJORITY_ALGORITHMS = {"ben-or", "mp-common-coin", "mm-local-coin"}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one consensus run."""

    topology: ClusterTopology
    algorithm: str = "hybrid-local-coin"
    proposals: ProposalSpec = "split"
    failure_pattern: FailurePattern = field(default_factory=FailurePattern.none)
    seed: int = 0
    delay_model: DelayModel = field(default_factory=UniformDelay)
    sim: SimConfig = field(default_factory=SimConfig)
    consensus_kind: str = "cas"
    mm_domain: Optional[SharedMemoryDomain] = None
    #: Optional fault-injection scenario (see :mod:`repro.adversary`).  Plain
    #: declarative data: it is pickled to workers and its repr enters sweep
    #: plan fingerprints, so adversarial sweeps shard and merge bit-identically.
    scenario: Optional[Scenario] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """A copy of this configuration with a different master seed."""
        return replace(self, seed=seed)


@dataclass
class RunResult:
    """The outcome of one :func:`run_consensus` call."""

    config: ExperimentConfig
    proposals: Dict[int, int]
    sim_result: SimulationResult
    metrics: RunMetrics
    report: PropertyReport
    memories: List[ClusterSharedMemory] = field(default_factory=list)

    @property
    def decided_value(self) -> Optional[int]:
        """The decided value, or ``None`` when no process decided."""
        return self.metrics.decided_value

    @property
    def terminated(self) -> bool:
        """Whether every correct process decided."""
        return self.metrics.terminated


def termination_expected(
    algorithm: str,
    topology: ClusterTopology,
    failure_pattern: FailurePattern,
    scenario: Optional[Scenario] = None,
) -> bool:
    """Whether the algorithm is *expected* to terminate under this pattern.

    Hybrid algorithms need the paper's cluster condition; pure message-passing
    algorithms (and the m&m analogue) need a strict majority of correct
    processes; the single-cluster shared-memory baseline only needs one
    correct process.  A fault-injection ``scenario`` that can lose messages
    (omission, dropping partitions) breaks the reliable-channel assumption,
    so termination stops being expected; liveness-preserving scenarios
    (delays, duplication, crash-recovery) keep the guarantee.
    """
    if scenario is not None and not scenario.liveness_preserving:
        return False
    correct = failure_pattern.correct(topology.n)
    if not correct:
        return False
    if algorithm in _CLUSTER_CONDITION_ALGORITHMS:
        return topology.termination_condition_holds(correct)
    if algorithm in _MAJORITY_ALGORITHMS:
        return topology.is_majority(len(correct))
    if algorithm == "shared-memory":
        return True
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _build_algorithm(
    config: ExperimentConfig,
    pid: int,
    proposal: int,
    memories: Sequence[ClusterSharedMemory],
    mm_memories,
    mm_domain,
    local_coins: Mapping[int, LocalCoin],
    common_coin: Optional[CommonCoin],
):
    topology = config.topology
    cluster_memory = memories[topology.cluster_index_of(pid)] if memories else None
    env = ProcessEnvironment(
        pid=pid,
        proposal=proposal,
        topology=topology,
        memory=cluster_memory,
        local_coin=local_coins.get(pid),
        common_coin=common_coin,
    )
    tag = config.tag
    if config.algorithm == "hybrid-local-coin":
        return LocalCoinConsensus(env, tag)
    if config.algorithm == "hybrid-common-coin":
        return CommonCoinConsensus(env, tag)
    if config.algorithm == "ben-or":
        env.memory = None
        return BenOrConsensus(env, tag)
    if config.algorithm == "mp-common-coin":
        env.memory = None
        return MessagePassingCommonCoinConsensus(env, tag)
    if config.algorithm == "shared-memory":
        return SharedMemoryConsensus(env, tag)
    if config.algorithm == "mm-local-coin":
        env.memory = None
        return MMConsensus(env, mm_domain, mm_memories, tag)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")  # pragma: no cover


@dataclass
class PreparedRun:
    """A fully wired consensus run whose kernel has not been stepped yet.

    The seam the cooperative multi-kernel host needs: *build* (network,
    memories, coins, processes, failure pattern, adversary) is split from
    *execute* so the host can drive :meth:`~repro.sim.kernel.SimulationKernel.run_batch`
    itself, then hand the terminal result to :meth:`finalize` for the same
    metrics collection and property verification the serial path performs.
    ``prepare -> kernel.run() -> finalize`` is exactly :func:`run_consensus`.
    """

    config: ExperimentConfig
    kernel: SimulationKernel
    network: Network
    proposals: Dict[int, int]
    memories: List[ClusterSharedMemory]

    def finalize(self, sim_result: SimulationResult, wall_time_seconds: float) -> RunResult:
        """Collect metrics and verify properties for a finished kernel run."""
        config = self.config
        topology = config.topology
        metrics = collect_metrics(
            algorithm=config.algorithm,
            seed=config.seed,
            topology=topology,
            result=sim_result,
            network=self.network,
            memories=self.memories,
            wall_time_seconds=wall_time_seconds,
            delay_model=config.delay_model.describe(),
            scenario=config.scenario.name if config.scenario is not None else "none",
        )
        expected = termination_expected(
            config.algorithm, topology, config.failure_pattern, config.scenario
        )
        report = verify_run(
            sim_result, self.proposals, topology, termination_expected=expected
        )
        return RunResult(
            config=config,
            proposals=self.proposals,
            sim_result=sim_result,
            metrics=metrics,
            report=report,
            memories=self.memories,
        )


def prepare_consensus(
    config: ExperimentConfig,
    local_coin_factory: Optional[Callable[[int], LocalCoin]] = None,
    common_coin: Optional[CommonCoin] = None,
) -> PreparedRun:
    """Build one consensus run -- substrates, coins, processes -- without running it.

    ``local_coin_factory`` / ``common_coin`` override the seeded default
    coins -- the hook the adversarial-coin robustness tests use to hand the
    algorithms pathological coins (stuck, opposing) while keeping the rest
    of the harness identical.  They are test-only knobs and deliberately not
    part of :class:`ExperimentConfig` (they would not belong in a sweep-plan
    fingerprint).
    """
    topology = config.topology
    rng = RandomSource(config.seed)
    kernel = SimulationKernel(config=config.sim, rng=rng)
    network = Network(topology.n, delay_model=config.delay_model, rng=rng)
    kernel.attach_network(network)

    proposals = resolve_proposals(config.proposals, topology.n, rng.stream("proposals"))

    needs_cluster_memory = config.algorithm in ("hybrid-local-coin", "hybrid-common-coin", "shared-memory")
    memories: List[ClusterSharedMemory] = (
        build_cluster_memories(topology, config.consensus_kind) if needs_cluster_memory else []
    )

    mm_domain = None
    mm_memories = None
    if config.algorithm == "mm-local-coin":
        mm_domain = config.mm_domain or SharedMemoryDomain.from_cluster_topology(topology)
        mm_memories = build_mm_memories(mm_domain, config.consensus_kind)

    needs_local_coin = config.algorithm in ("hybrid-local-coin", "ben-or", "mm-local-coin")
    local_coins: Dict[int, LocalCoin] = {}
    if needs_local_coin:
        if local_coin_factory is not None:
            local_coins = {pid: local_coin_factory(pid) for pid in topology.process_ids()}
        else:
            local_coins = {
                pid: LocalCoin(rng.stream("local-coin", pid)) for pid in topology.process_ids()
            }

    needs_common_coin = config.algorithm in ("hybrid-common-coin", "mp-common-coin")
    if needs_common_coin and common_coin is None:
        common_coin = CommonCoin(seed=config.seed)
    if not needs_common_coin:
        common_coin = None

    for pid in topology.process_ids():
        algorithm = _build_algorithm(
            config, pid, proposals[pid], memories, mm_memories, mm_domain, local_coins, common_coin
        )
        kernel.add_process(pid, algorithm.run)

    config.failure_pattern.install(kernel)
    if config.scenario is not None:
        kernel.install_adversary(build_adversary(config.scenario, rng.stream("adversary")))

    all_memories: List[ClusterSharedMemory] = list(memories)
    if mm_memories:
        all_memories.extend(mm_memories.values())

    return PreparedRun(
        config=config,
        kernel=kernel,
        network=network,
        proposals=proposals,
        memories=all_memories,
    )


def run_consensus(
    config: ExperimentConfig,
    local_coin_factory: Optional[Callable[[int], LocalCoin]] = None,
    common_coin: Optional[CommonCoin] = None,
) -> RunResult:
    """Run one consensus instance end to end and verify its properties.

    ``prepare -> run -> finalize`` over :func:`prepare_consensus`; only the
    wall-clock measurement (deliberately excluded from summaries, being the
    one nondeterministic metric) lives here.  See :func:`prepare_consensus`
    for the coin-override knobs.
    """
    prepared = prepare_consensus(
        config, local_coin_factory=local_coin_factory, common_coin=common_coin
    )
    started = _time.perf_counter()
    sim_result = prepared.kernel.run()
    wall = _time.perf_counter() - started
    return prepared.finalize(sim_result, wall)

