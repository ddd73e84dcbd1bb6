"""Local and common coins (plus scripted variants for testing)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "common": ["AdversarialCommonCoin", "CommonCoin", "FixedSequenceCommonCoin"],
        "local": ["BiasedLocalCoin", "DeterministicCoin", "LocalCoin"],
    },
)
