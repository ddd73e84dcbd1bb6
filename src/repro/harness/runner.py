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
from typing import Callable, Dict, List, Optional, Type

from ..adversary.adaptive import build_adversary
from ..adversary.scenario import Scenario
from ..baselines.ben_or import BenOrConsensus
from ..baselines.mp_common_coin import MessagePassingCommonCoinConsensus
from ..baselines.shared_memory_only import SharedMemoryConsensus
from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..coins.common import CommonCoin
from ..coins.local import LocalCoin
from ..core.base import ConsensusProcess, ProcessEnvironment
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

#: name -> class of every algorithm runnable through the harness.  Each class
#: declares what the harness builds for it (shared memory, coin) and its
#: termination condition; see :class:`~repro.core.base.ConsensusProcess`.
ALGORITHM_CLASSES: Dict[str, Type[ConsensusProcess]] = {
    cls.algorithm_name: cls
    for cls in (LocalCoinConsensus, CommonCoinConsensus, BenOrConsensus,
                MessagePassingCommonCoinConsensus, SharedMemoryConsensus, MMConsensus)
}
ALGORITHMS = tuple(ALGORITHM_CLASSES)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one consensus run."""

    topology: ClusterTopology
    algorithm: str = LocalCoinConsensus.algorithm_name
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

    Each algorithm's class declares the condition (``termination_holds``).
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
    if algorithm not in ALGORITHM_CLASSES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    correct = failure_pattern.correct(topology.n)
    return bool(correct) and ALGORITHM_CLASSES[algorithm].termination_holds(topology, correct)


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
            phases_per_round=ALGORITHM_CLASSES[config.algorithm].phases_per_round,
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
    cls = ALGORITHM_CLASSES[config.algorithm]
    topology = config.topology
    rng = RandomSource(config.seed)
    kernel = SimulationKernel(config=config.sim, rng=rng)
    network = Network(topology.n, delay_model=config.delay_model, rng=rng)
    kernel.attach_network(network)

    proposals = resolve_proposals(config.proposals, topology.n, rng.lazy_stream("proposals"))

    memories: List[ClusterSharedMemory] = []  # every memory the run touches, for its metrics
    extra: tuple = ()  # the m&m constructor's domain and centred memories
    if cls.shared_memory == "cluster":
        memories = build_cluster_memories(topology, config.consensus_kind)
    elif cls.shared_memory == "centred":
        mm_domain = config.mm_domain or SharedMemoryDomain.from_cluster_topology(topology)
        mm_memories = build_mm_memories(mm_domain, config.consensus_kind)
        memories = list(mm_memories.values())
        extra = (mm_domain, mm_memories)

    local_coins: Dict[int, LocalCoin] = {}
    if cls.coin == "local":
        factory = local_coin_factory or (lambda pid: LocalCoin(rng.lazy_stream("local-coin", pid)))
        local_coins = {pid: factory(pid) for pid in topology.process_ids()}
    if cls.coin != "common":
        common_coin = None
    elif common_coin is None:
        common_coin = CommonCoin(seed=config.seed)

    for pid in topology.process_ids():
        env = ProcessEnvironment(
            pid=pid,
            proposal=proposals[pid],
            topology=topology,
            memory=memories[topology.cluster_index_of(pid)] if cls.shared_memory == "cluster" else None,
            local_coin=local_coins.get(pid),
            common_coin=common_coin,
        )
        kernel.add_process(pid, cls(env, *extra, tag=config.tag).run)

    config.failure_pattern.install(kernel)
    if config.scenario is not None:
        kernel.install_adversary(build_adversary(config.scenario, rng.stream("adversary")))

    return PreparedRun(
        config=config,
        kernel=kernel,
        network=network,
        proposals=proposals,
        memories=memories,
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

