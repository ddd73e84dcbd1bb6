"""What one consensus run is: the algorithm registry and :class:`ExperimentConfig`.

Each point of a sweep plan holds an :class:`ExperimentConfig`, and their
reprs are the plan's fingerprint.  The data lives here, below the code that
runs it (:mod:`repro.harness.runner`), so that building a plan -- every
driver's ``plan()``, and ``python -m repro merge``, which rebuilds one --
loads no simulator: this module imports the topology and failure model, the
delay models, the m&m domain, :class:`~repro.sim.config.SimConfig` and the
six algorithm classes, none of which loads the kernel, the transport, the
runner or the metrics (``tests/test_startup_imports.py`` holds that).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Type

from ..baselines.ben_or import BenOrConsensus
from ..baselines.mp_common_coin import MessagePassingCommonCoinConsensus
from ..baselines.shared_memory_only import SharedMemoryConsensus
from ..cluster.failures import FailurePattern
from ..cluster.topology import ClusterTopology
from ..core.base import ConsensusProcess
from ..core.common_coin import CommonCoinConsensus
from ..core.local_coin import LocalCoinConsensus
from ..mm.consensus import MMConsensus
from ..mm.domain import SharedMemoryDomain
from ..network.delays import DelayModel, UniformDelay
from ..sharedmem.memory import CONSENSUS_FACTORIES
from ..sim.config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.scenario import Scenario
    from .workloads import ProposalSpec

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
        # Checked for every algorithm: the kind enters the plan fingerprint
        # even where no shared memory is built.
        if self.consensus_kind not in CONSENSUS_FACTORIES:
            raise ValueError(
                f"ExperimentConfig.consensus_kind must be one of {sorted(CONSENSUS_FACTORIES)}, "
                f"got {self.consensus_kind!r}"
            )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """A copy of this configuration with a different master seed."""
        return replace(self, seed=seed)


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
