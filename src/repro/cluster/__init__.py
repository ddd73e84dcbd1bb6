"""Cluster model: process partitions and crash-failure patterns."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "failures": ["FailurePattern"],
        "topology": ["ClusterTopology", "TopologyError"],
    },
)
