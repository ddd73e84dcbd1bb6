"""Pure message-passing common-coin consensus (crash-failure version).

The single-phase, common-coin round structure of Algorithm 3 without the
cluster shared memory: each round a process broadcasts its estimate, waits
for a strict majority of senders, queries the common coin, adopts a
majority-supported value (deciding when the coin matches it) and otherwise
adopts the coin.  This is the crash-failure adaptation, presented in
Raynal's 2018 book, of the Byzantine consensus of Friedman, Mostéfaoui and
Raynal (2005) -- the algorithm Algorithm 3 extends.  It requires a strict
majority of correct processes.
"""

from ..core.common_coin import CommonCoinRound


class MessagePassingCommonCoinConsensus(CommonCoinRound):
    """One process's instance of the pure message-passing common-coin algorithm.

    The common-coin round's defaults: no pre-agreement, sender-only attribution.
    """

    algorithm_name = "mp-common-coin"
