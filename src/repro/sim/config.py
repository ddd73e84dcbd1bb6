"""What a simulated run is configured with, apart from the simulator.

:class:`SimConfig` is plain data: a sweep plan holds one per point, and its
repr enters the plan's fingerprint.  It lives here, below
:mod:`repro.sim.kernel`, so that building a plan -- and merging one -- loads
no simulator; this module imports only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass
class SimConfig:
    """Tunable parameters of the simulated execution environment.

    The delay constants are in arbitrary virtual-time units.  Their default
    ratio (shared-memory operation one order of magnitude cheaper than a
    typical message delay, local steps cheaper still) encodes the paper's
    efficiency premise: intra-cluster agreement is cheap, inter-cluster
    message exchange is expensive.
    """

    max_time: float = 1e9
    max_rounds: Optional[int] = 500
    local_step_delay: float = 1e-4
    sm_op_delay: float = 1e-3
    scheduling_jitter: float = 1e-5
    trace: bool = False
    trace_max_entries: int = 100_000

    def __post_init__(self) -> None:
        # A negative delay queues steps behind the clock, a NaN one puts NaN
        # keys in the heap, and a NaN time bound never times out: refuse them
        # here, naming the field, rather than run a meaningless schedule.
        for name in ("local_step_delay", "sm_op_delay", "scheduling_jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"SimConfig.{name} must be finite and >= 0, got {value!r}")
        if not self.max_time > 0:
            raise ValueError(f"SimConfig.max_time must be > 0 (inf allowed), got {self.max_time!r}")
        rounds = self.max_rounds
        if rounds is not None and (type(rounds) is bool or not isinstance(rounds, int) or rounds < 1):
            raise ValueError(f"SimConfig.max_rounds must be None or an int >= 1, got {rounds!r}")
        cap = self.trace_max_entries
        if type(cap) is bool or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"SimConfig.trace_max_entries must be an int >= 0, got {cap!r}")
