"""A deliberately broken Ben-Or variant: the search harness's ground truth.

A schedule search that never finds anything proves little -- maybe the
algorithms are safe, maybe the search is blind.  This module plants a
known, *schedule-dependent* agreement bug so the suite can assert the
search actually detects real disagreement and that its replay tokens
reproduce it deterministically.

The bug: Ben-Or's phase-2 decision rule requires a championed value ``v``
with **no** ``⊥`` among the received phase-2 values -- every sender in the
majority must champion ``v`` -- and the decider then broadcasts ``DECIDE``
so laggards converge.  :class:`PlantedBenOrConsensus` decides as soon as
*any* championed value appears (even alongside ``⊥``) and skips the decide
broadcast.  Whether that premature decision disagrees with the rest of
the system depends entirely on which majority each process's exchange
happens to see -- i.e. on the dispatch schedule, which is exactly the
dimension :func:`~repro.search.explorer.search` explores.

Only the search harness and its tests may import this module; the variant
is deliberately not registered with the experiment harness.
"""

from __future__ import annotations

from typing import Tuple

from ..cluster.topology import ClusterTopology
from ..coins.local import LocalCoin
from ..core.base import BOT, ProcessEnvironment
from ..core.local_coin import DECIDE_SILENTLY, FLIP, LocalCoinRound
from ..harness.workloads import resolve_proposals
from ..network.delays import ConstantDelay
from ..network.transport import Network
from ..sim.kernel import SimulationKernel
from ..sim.rng import RandomSource


class PlantedBenOrConsensus(LocalCoinRound):
    """Ben-Or with a premature phase-2 decision rule (agreement is broken)."""

    algorithm_name = "planted-ben-or"

    def phase2_rule(self, round_number: int, received: frozenset):
        """THE PLANTED BUG (two faults in one).

        Decides although ``⊥`` was received alongside the championed value
        (the correct rule demands unanimity in the majority), and decides
        without the ``DECIDE`` broadcast, so nobody learns about it.  It also
        skips the WA1 check, letting a genuinely disagreeing schedule
        complete instead of raising.
        """
        championed = received - {BOT}
        if championed:
            return DECIDE_SILENTLY, min(championed)
        return FLIP, None


def prepare_planted(spec) -> Tuple[SimulationKernel, dict, ClusterTopology]:
    """Wire one un-stepped planted run: ``(kernel, proposals, topology)``.

    Mirrors the harness's :func:`~repro.harness.runner.prepare_consensus`
    wiring for the pure message-passing path (same seed-derived streams for
    proposals and local coins), but swaps in the broken algorithm -- which
    is why the variant never touches the harness registry.
    """
    topology = spec.topology()
    rng = RandomSource(spec.seed)
    kernel = SimulationKernel(config=spec.sim_config(), rng=rng)
    network = Network(topology.n, delay_model=ConstantDelay(spec.delay), rng=rng)
    kernel.attach_network(network)
    proposals = resolve_proposals(spec.proposals, topology.n, rng.lazy_stream("proposals"))
    for pid in topology.process_ids():
        env = ProcessEnvironment(
            pid=pid,
            proposal=proposals[pid],
            topology=topology,
            memory=None,
            local_coin=LocalCoin(rng.lazy_stream("local-coin", pid)),
        )
        algorithm = PlantedBenOrConsensus(env)
        kernel.add_process(pid, algorithm.run)
    return kernel, proposals, topology


__all__ = ["PlantedBenOrConsensus", "prepare_planted"]
