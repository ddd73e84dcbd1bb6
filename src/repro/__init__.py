"""repro — a reproduction of "One for All and All for One: Scalable Consensus
in a Hybrid Communication Model" (Raynal & Cao, ICDCS 2019).

The package implements the paper's hybrid communication model (clusters with
shared memory plus a global asynchronous message-passing network), its two
randomized binary consensus algorithms, the baselines they extend, the m&m
model they are compared against, and a deterministic simulation and
experiment harness that reproduces the paper's quantitative claims.

Quickstart::

    from repro import ClusterTopology, ExperimentConfig, run_consensus

    topology = ClusterTopology.figure1_right()
    result = run_consensus(ExperimentConfig(topology=topology, algorithm="hybrid-local-coin"))
    print(result.decided_value, result.metrics.rounds_max)
"""

from ._lazy import lazy_exports

#: The one version string; ``setup.py`` reads it from this file without importing it.
__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cluster": ["ClusterTopology", "FailurePattern", "TopologyError"],
        "coins": ["CommonCoin", "LocalCoin"],
        "core": [
            "BOT", "CommonCoinConsensus", "ConsensusProcess", "ConsensusViolation",
            "LocalCoinConsensus", "ProcessEnvironment", "PropertyReport", "msg_exchange",
            "verify_run",
        ],
        "harness": [
            "ALGORITHMS", "ExperimentConfig", "RunMetrics", "RunResult", "run_consensus",
            "termination_expected",
        ],
        "mm": ["MMConsensus", "SharedMemoryDomain"],
        "network": [
            "ConstantDelay", "ExponentialDelay", "LogNormalDelay", "Network", "SpikeDelay",
            "UniformDelay",
        ],
        "sharedmem": ["CASConsensusObject", "ClusterSharedMemory", "build_cluster_memories"],
        "sim": ["RunStatus", "SimConfig", "SimulationKernel", "SimulationResult"],
    },
)
__all__.append("__version__")
