"""Cooperative multi-kernel execution: step K kernels in one process.

One :class:`~repro.sim.kernel.SimulationKernel` is synchronous, so a single
run is bound to one core's speed and one heap's worth of events.  This module
hosts **K kernels in one process** and interleaves them in event batches:
each kernel advances through :meth:`~repro.sim.kernel.SimulationKernel.run_batch`
until its budget runs out, yields, and the scheduler steps the next one.
Nothing runs concurrently -- the interleaving is pure cooperative multitasking
over generators -- which is exactly why it is safe.

Why interleaving cannot change results
--------------------------------------
Every run owns a private :class:`~repro.sim.rng.RandomSource` derived from
its own master seed, and every stochastic subsystem inside the run draws
from a *named* stream of that source (``("kernel", "jitter")`` for scheduler
tie-breaks, ``("proposals",)``, ``("local-coin", pid)``, ``("adversary",)``,
the network's delay streams, ...).  Two co-hosted kernels therefore share no
generator state at all; suspending one mid-run cannot perturb another's
draws.  The scheduler's *own* randomness (the optional random interleave
policy) is split off the same way -- per (worker, subsystem) via
:meth:`~repro.sim.rng.RandomSource.spawn` -- so it can never collide with
any run's streams either.  The consequence, enforced by
``tests/test_multikernel.py``: a logical run is **bit-identical** whether it
is hosted alone, on 1 cooperative slot, or interleaved with K-1 neighbours
in any interleave order.

What hosting costs
------------------
A batch boundary costs one generator resume and nothing else.  In
particular it costs no garbage collection: :meth:`CooperativeScheduler.run`
holds CPython's cyclic collector off for the whole loop
(:func:`~repro.sim.kernel.collector_paused`) and ``run_batch`` never touches
it -- allocations keep counting while the collector is off, so re-enabling it
per batch would make every boundary a traversal of everything the K live
kernels hold.  Memory stays bounded by the ``width`` kernels in flight
because a finished run is acyclic: overwriting its slot frees the kernel,
its mailboxes and its undelivered queue tail by reference counting, in the
scheduler's frame, before the next driver is prepared.

The drivers this scheduler steps are plain generators: yield to hand the
slot back, return (``StopIteration.value``) to deliver the final result.
:func:`kernel_stepper` wraps a bare kernel; the harness wraps a full
prepared consensus run (see ``repro.harness.parallel``).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Sequence

from .kernel import SimulationKernel, SimulationResult, collector_paused
from .rng import RandomSource

#: Events granted to a kernel per cooperative turn.  Large enough that the
#: generator send/yield machinery is noise against the events themselves
#: (<0.1% at the measured ~500k events/sec), small enough that K co-hosted
#: kernels make progress in visibly overlapping stripes.
DEFAULT_BATCH_EVENTS = 4096

#: The interleave policies :class:`CooperativeScheduler` knows.
INTERLEAVE_POLICIES = ("round-robin", "random")


def scheduler_rng(seed: int, worker: int = 0) -> RandomSource:
    """The RNG namespace a cooperative scheduler may draw from.

    Split per (worker, subsystem) off a master seed via
    :meth:`~repro.sim.rng.RandomSource.spawn`, mirroring how every other
    subsystem derives its streams -- the scheduler's draws can therefore
    never collide with any hosted run's streams, whatever the seed.
    """
    return RandomSource(seed).spawn("multikernel", worker, "scheduler")


def kernel_stepper(
    kernel: SimulationKernel, batch_events: int = DEFAULT_BATCH_EVENTS
) -> Generator[None, None, SimulationResult]:
    """A driver generator advancing ``kernel`` one event batch per turn.

    Yields after every exhausted budget; returns the final
    :class:`~repro.sim.kernel.SimulationResult` once the run terminates.
    """
    if batch_events < 1:
        raise ValueError(f"batch_events must be >= 1, got {batch_events}")
    while True:
        result = kernel.run_batch(batch_events)
        if result is not None:
            return result
        yield


class CooperativeScheduler:
    """Interleave driver generators over ``width`` cooperative slots.

    ``width`` is how many drivers are in flight at once (the cooperative
    analogue of a pool's worker count); remaining drivers queue behind them
    in input order and backfill slots as runs finish.  Results come back in
    input order, whatever the interleaving.

    ``interleave`` picks which occupied slot runs next: ``"round-robin"``
    (the default -- deterministic, cache-friendly stripes) or ``"random"``,
    which draws from ``rng`` (a :func:`scheduler_rng`-style namespace).
    Because hosted runs share no RNG state with each other or with the
    scheduler, both policies produce bit-identical per-run results -- the
    random policy exists precisely to let tests assert that.
    """

    def __init__(
        self,
        width: int,
        interleave: str = "round-robin",
        rng: Optional[RandomSource] = None,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if interleave not in INTERLEAVE_POLICIES:
            raise ValueError(
                f"unknown interleave {interleave!r}; choose from {INTERLEAVE_POLICIES}"
            )
        if interleave == "random" and rng is None:
            rng = scheduler_rng(0)
        self.width = width
        self.interleave = interleave
        self._pick_random = (
            rng.stream("interleave").randrange if interleave == "random" else None
        )

    def run(self, drivers: Iterable[Generator[None, None, Any]]) -> List[Any]:
        """Step every driver to completion; results in input order.

        The loop runs under :func:`~repro.sim.kernel.collector_paused` (see
        "What hosting costs" in the module docstring).
        """
        pending = list(enumerate(drivers))
        results: List[Any] = [None] * len(pending)
        pending.reverse()  # pop() from the tail = input order
        #: Occupied slots, each ``(input_index, driver)``.
        slots: List[Any] = []
        while len(slots) < self.width and pending:
            slots.append(pending.pop())
        cursor = 0
        pick_random = self._pick_random
        with collector_paused():
            while slots:
                if pick_random is not None:
                    cursor = pick_random(len(slots))
                elif cursor >= len(slots):
                    cursor = 0
                index, driver = slots[cursor]
                try:
                    next(driver)
                except StopIteration as stop:
                    results[index] = stop.value
                    if pending:
                        slots[cursor] = pending.pop()
                    else:
                        del slots[cursor]
                    # Keep the cursor in place: the backfilled (or shifted-in)
                    # driver runs next, so every slot still gets equal turns.
                    continue
                cursor += 1
        return results


def run_cooperative(
    kernels: Sequence[SimulationKernel],
    width: Optional[int] = None,
    batch_events: int = DEFAULT_BATCH_EVENTS,
    interleave: str = "round-robin",
    rng: Optional[RandomSource] = None,
) -> List[SimulationResult]:
    """Run every kernel to completion on one cooperative host.

    Convenience wrapper: ``width`` defaults to hosting all kernels at once.
    Each result is bit-identical to calling that kernel's ``run()`` alone.
    """
    scheduler = CooperativeScheduler(
        width=width if width is not None else max(1, len(kernels)),
        interleave=interleave,
        rng=rng,
    )
    return scheduler.run([kernel_stepper(kernel, batch_events) for kernel in kernels])
