"""Local and common coins (plus adversarial variants for testing)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "adversarial": [
            "AdversarialCommonCoin", "AlwaysOneCoin", "AlwaysZeroCoin", "OpposingCoins",
        ],
        "common": ["CommonCoin", "FixedSequenceCommonCoin"],
        "local": ["BiasedLocalCoin", "DeterministicCoin", "LocalCoin"],
    },
)
