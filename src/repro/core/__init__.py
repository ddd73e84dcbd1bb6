"""The paper's primary contribution: hybrid-model binary consensus.

* :func:`~repro.core.pattern.msg_exchange` — Algorithm 1, the cluster-aware
  all-to-all communication pattern.
* :class:`~repro.core.local_coin.LocalCoinConsensus` — Algorithm 2.
* :class:`~repro.core.common_coin.CommonCoinConsensus` — Algorithm 3.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": [
            "BINARY_VALUES", "BOT", "ConsensusProcess", "DecideMessage", "PhaseMessage",
            "ProcessEnvironment", "ProtocolInvariantError", "validate_proposal",
        ],
        "common_coin": ["CommonCoinConsensus"],
        "local_coin": ["LocalCoinConsensus"],
        "pattern": ["ExchangeOutcome", "msg_exchange", "scan_mailbox"],
        "properties": [
            "ConsensusViolation", "PropertyReport", "check_agreement", "check_termination",
            "check_validity", "decisions_are_unanimous", "verify_run",
        ],
    },
)
