"""Baseline consensus algorithms the paper builds on or compares against."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ben_or": ["BenOrConsensus"],
        "mp_common_coin": ["MessagePassingCommonCoinConsensus"],
        "shared_memory_only": ["SharedMemoryConsensus"],
    },
)
