"""Ben-Or's randomized binary consensus (pure message passing, 1983).

This is the algorithm Algorithm 2 extends: the same two-phase round
structure, but with no cluster shared memory and therefore no cluster
attribution -- a message counts only for its sender.  It requires a strict
majority of correct processes; experiment E2 uses it as the control showing
that, under a majority crash, pure message passing cannot terminate while the
hybrid algorithm (with a majority cluster) can, and experiment E6 checks that
Algorithm 2 with singleton clusters behaves like this baseline.
"""

from ..core.local_coin import LocalCoinRound


class BenOrConsensus(LocalCoinRound):
    """One process's instance of Ben-Or's algorithm: the local-coin round's defaults."""

    algorithm_name = "ben-or"
