"""Shared test helpers.

``SyncContext`` mimics the :class:`repro.sim.context.ProcessContext` API but
executes every effect synchronously and immediately, which lets unit tests
drive algorithm-level generators (a consensus object's ``propose``) without
standing up a simulation kernel.  ``drive`` runs such a generator to
completion and returns its value.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro.network.message import Message


class SyncContext:
    """A ProcessContext stand-in whose effect helpers never suspend."""

    def __init__(self, pid: int = 0, now: float = 0.0, mailbox: Optional[List[Message]] = None) -> None:
        self.pid = pid
        self._now = now
        self.mailbox: List[Message] = mailbox if mailbox is not None else []
        self.sent: List[Message] = []
        self.rounds = 0
        self.coin_flips = 0
        self.sm_ops = 0
        self._rng = random.Random(pid)

    # --- ProcessContext API ------------------------------------------------
    def now(self) -> float:
        return self._now

    def random(self) -> random.Random:
        return self._rng

    def send(self, dest: int, payload: Any):
        self.sent.append(Message(sender=self.pid, dest=dest, payload=payload, send_time=self._now))
        return
        yield  # pragma: no cover - makes this a generator function

    def broadcast(self, payload: Any):
        yield from self.send(self.pid, payload)

    def wait_until(self, predicate: Callable[[Sequence[Any]], Any]):
        result = predicate(self.mailbox)
        if result is None:
            raise AssertionError("SyncContext.wait_until would block; give it a satisfying mailbox")
        return result
        yield  # pragma: no cover

    def sm_op(self, operation: Callable[..., Any], *args: Any):
        self.sm_ops += 1
        return operation(*args)
        yield  # pragma: no cover

    def local_step(self, duration: Optional[float] = None):
        return None
        yield  # pragma: no cover

    def mark_round(self, round_number: int) -> None:
        self.rounds = max(self.rounds, round_number)

    def count_coin_flip(self) -> None:
        self.coin_flips += 1

    def log(self, message: str) -> None:
        pass


def drive(generator) -> Any:
    """Run a generator that never suspends; return its StopIteration value."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator suspended; use the simulation kernel for this test")


#: The package source, for the ``ast`` count gates.
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def count_calls(path: Path, *names: str) -> int:
    """How many call sites in ``path`` name one of ``names`` (bare or dotted)."""
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        for node in ast.walk(ast.parse(path.read_text()))
    )


def make_message(sender: int, payload: Any, dest: int = 0, time: float = 0.0, msg_id: int = 0) -> Message:
    """Build a Message envelope for mailbox-level tests."""
    return Message(sender=sender, dest=dest, payload=payload, send_time=time, msg_id=msg_id)


# --------------------------------------------------------------------- golden
# Small, fast configurations of every kernel-exercising experiment (e1-e9,
# the adaptive-adversary e10 and the empirical-delay e11), used both by
# scripts/gen_golden_summaries.py (which froze the pre-refactor kernel's
# summaries into tests/golden/kernel_summaries.json) and by
# tests/test_golden_kernel.py (which asserts the current kernel still
# reproduces every one of those RunSummary objects bit-for-bit).

GOLDEN_SEEDS = [1000, 1001]

GOLDEN_EXPERIMENTS = [f"e{i}" for i in range(1, 12)]


def golden_plans():
    """The small sweep plans covered by the golden kernel fixture."""
    from repro.experiments import (
        e1_figure1,
        e2_majority_crash,
        e3_one_for_all,
        e4_rounds,
        e5_mm_comparison,
        e6_degenerate,
        e7_indulgence,
        e8_scalability,
        e9_adversary,
        e10_adaptive,
        e11_resilience,
    )

    seeds = list(GOLDEN_SEEDS)
    return {
        "e1": e1_figure1.plan(seeds=seeds),
        "e2": e2_majority_crash.plan(seeds=seeds, sizes=(7,)),
        "e3": e3_one_for_all.plan(seeds=seeds, n=6, m=3),
        "e4": e4_rounds.plan(seeds=seeds, sizes=(6,), proposals=("split",)),
        "e5": e5_mm_comparison.plan(seeds=seeds, sizes=(8,), cluster_counts=(2,)),
        "e6": e6_degenerate.plan(seeds=seeds, n=5),
        "e7": e7_indulgence.plan(seeds=seeds, n=6, m=3, round_cap=12),
        "e8": e8_scalability.plan(seeds=seeds, sizes=(4, 8)),
        "e9": e9_adversary.plan(
            seeds=seeds,
            scenarios=("lossy-links", "duplication-storm", "partition-drop", "crash-recovery"),
            intensities=(0.4,),
            round_cap=15,
        ),
        # Every adaptive strategy, observing engine and corruption included.
        "e10": e10_adaptive.plan(seeds=seeds, intensities=(0.3, 0.7), round_cap=15),
        # One empirical-delay point pins the ECDF inverse-transform sampling
        # (and its batched refill) into the bit-identity fixture.
        "e11": e11_resilience.plan(
            seeds=seeds,
            scenarios=("kill-during-recovery",),
            delays=("empirical",),
            round_cap=15,
        ),
    }


def compute_golden_summaries():
    """Run every golden plan serially and return its summaries, JSON-shaped.

    Each run is encoded the way a checkpoint holds it
    (:func:`~repro.harness.distributed.summary_to_json`): floats as
    ``float.hex()``, so the fixture comparison is exact to the last bit, not
    merely approximate, and it pins the checkpoint encoding as well.
    """
    from repro.harness.aggregate import RunSummary, run_priority
    from repro.harness.distributed import summary_to_json
    from repro.harness.runner import run_consensus

    experiments = {}
    for exp_id, plan in sorted(golden_plans().items()):
        points = []
        for point_index, point in enumerate(plan.points):
            runs = []
            for seed_position, seed in enumerate(plan.seeds):
                index = plan.run_index(point_index, seed_position)
                result = run_consensus(point.config.with_seed(seed))
                summary = RunSummary.from_result(
                    result, index, run_priority(plan.entropy, index)
                )
                runs.append(summary_to_json(summary))
            points.append({"label": point.label, "runs": runs})
        experiments[exp_id] = points
    return {
        "format": 1,
        "seeds": list(GOLDEN_SEEDS),
        "experiments": experiments,
    }
