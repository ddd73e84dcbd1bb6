"""The m&m (messages-and-memories) model used for the Section III-C comparison."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "consensus": ["MMConsensus"],
        "domain": ["DomainError", "SharedMemoryDomain"],
        "memory": ["ProcessCentredMemory", "build_mm_memories", "memories_accessible_by"],
    },
)
