"""Parallel execution engine for experiment runs.

The paper's experiments are embarrassingly parallel: every repetition is an
independent, fully seeded :func:`~repro.harness.runner.run_consensus` call.
:func:`run_many` fans a list of configurations out over a process pool while
keeping the result list in input order, so a parallel sweep is
*bit-identical* to the serial one — only faster.

Execution modes (``exec_mode``, or the ``REPRO_EXEC_MODE`` environment
variable):

* ``"process"`` (default) — the process pool described above;
* ``"coop"`` — host every run in **one** process as cooperatively
  interleaved kernels (:mod:`repro.sim.multikernel`): no pickling, no
  worker start-up, and the whole batch shares one warm interpreter.  Runs
  share no RNG state (each owns a seeded
  :class:`~repro.sim.rng.RandomSource`), so results stay bit-identical to
  the serial and pool paths, whatever the interleaving;
* ``"auto"`` — ``coop`` when only one worker is usable or the batch
  contains very large systems (n ≥ :data:`COOP_AUTO_THRESHOLD`, where
  per-run footprints dwarf pool overheads), else ``process``.

Fallbacks keep the engine safe to use unconditionally:

* ``max_workers=1`` (or a single configuration) runs serially in-process;
* configurations or results that cannot be pickled fall back to the serial
  path instead of failing;
* a broken worker pool (e.g. a worker killed by the OS) also falls back to
  the serial path, which reproduces any genuine error deterministically.

The default worker count comes from the ``REPRO_MAX_WORKERS`` environment
variable when set, else from the CPUs usable by this process
(affinity-aware, so container CPU quotas are respected).
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from contextlib import contextmanager
from time import perf_counter
from typing import (
    TYPE_CHECKING, Any, ContextManager, Generator, Iterable, Iterator, List, Optional, Sequence,
)

from ..sim.multikernel import DEFAULT_BATCH_EVENTS, CooperativeScheduler
from .aggregate import Reducer
from .runner import ExperimentConfig, RunResult, prepare_consensus, run_consensus

# ``concurrent.futures.process`` pulls in ``multiprocessing``; it is imported
# where a pool is built, so a single-worker run loads neither.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures.process import ProcessPoolExecutor

    from .distributed import SweepPlan

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"

#: Environment variable overriding the default execution mode.
EXEC_MODE_ENV_VAR = "REPRO_EXEC_MODE"

#: The execution modes :func:`run_many` understands.
EXEC_MODES = ("process", "coop", "auto")

#: ``auto`` switches to cooperative hosting at this system size: event
#: counts (and run memory) grow superlinearly in n, so above it the pool's
#: per-task pickling and worker start-up stop paying for themselves.
COOP_AUTO_THRESHOLD = 512


def _cgroup_cpu_quota() -> Optional[int]:
    """Whole CPUs granted by the cgroup CPU quota, or ``None`` if unlimited.

    ``sched_getaffinity`` sees cpusets but not CFS bandwidth limits, so a
    container throttled to 2 CPUs of quota can still report 16 affine CPUs;
    sizing pools (or speedup expectations) off that number oversubscribes.
    """
    try:  # cgroup v2
        with open("/sys/fs/cgroup/cpu.max") as handle:
            quota, period = handle.read().split()[:2]
    except (OSError, ValueError):
        try:  # cgroup v1
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as handle:
                quota = handle.read().strip()
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as handle:
                period = handle.read().strip()
        except OSError:
            return None
    if quota in ("max", "-1"):
        return None
    try:
        return max(1, int(quota) // int(period))
    except (ValueError, ZeroDivisionError):
        return None


def available_cpus() -> int:
    """The CPUs usable by this process (affinity- and cgroup-quota-aware)."""
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    return min(cpus, quota) if quota is not None else cpus


def default_workers() -> int:
    """The default degree of parallelism (env override, else usable CPUs)."""
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return available_cpus()


def resolve_workers(max_workers: Optional[int], task_count: int) -> int:
    """Clamp the requested worker count to something useful for ``task_count``."""
    if task_count <= 0:
        return 1
    workers = default_workers() if max_workers is None else max_workers
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {workers}")
    return min(workers, task_count)


def default_exec_mode() -> str:
    """The default execution mode (``REPRO_EXEC_MODE`` override, else process)."""
    override = os.environ.get(EXEC_MODE_ENV_VAR, "").strip().lower()
    if override:
        if override not in EXEC_MODES:
            warnings.warn(
                f"ignoring {EXEC_MODE_ENV_VAR}={override!r}: choose from {EXEC_MODES}",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            return override
    return "process"


def resolve_exec_mode(
    exec_mode: Optional[str],
    configs: Sequence[ExperimentConfig],
    workers: int,
) -> str:
    """Resolve the requested mode to ``"process"`` or ``"coop"``.

    Precedence: explicit argument, then the ``REPRO_EXEC_MODE`` environment
    variable, then ``"process"``.  ``"auto"`` picks ``coop`` when only one
    worker is usable (cooperative hosting beats serial by keeping one warm
    interpreter and costs nothing extra) or when the batch contains a system
    of n ≥ :data:`COOP_AUTO_THRESHOLD`.
    """
    mode = exec_mode if exec_mode is not None else default_exec_mode()
    if mode not in EXEC_MODES:
        raise ValueError(f"unknown exec_mode {mode!r}; choose from {EXEC_MODES}")
    if mode != "auto":
        return mode
    if workers <= 1:
        return "coop"
    largest = max((config.topology.n for config in configs), default=0)
    return "coop" if largest >= COOP_AUTO_THRESHOLD else "process"


def default_chunksize(task_count: int, workers: Optional[int] = None) -> int:
    """Submission chunk size that amortises executor overhead for tiny runs.

    One pickled task per pipe round-trip is wasteful when each simulation
    lasts microseconds; batching ~4 chunks per worker keeps the pipe quiet
    while still letting the pool balance uneven run times.  The cap keeps
    very large batches from degenerating into one chunk per worker (which
    would serialise behind the slowest chunk).
    """
    if task_count <= 0:
        return 1
    if workers is None:
        workers = available_cpus()
    return max(1, min(64, math.ceil(task_count / (max(workers, 1) * 4))))


def _execute(config: ExperimentConfig) -> RunResult:
    """Worker entry point (module-level so the pool can pickle it)."""
    return run_consensus(config)


def _execute_reduced(task) -> Any:
    """Worker entry point for summary mode: run, check, reduce in-worker.

    Only the reducer's compact return value crosses the pipe back.  The
    property check also happens here, so violations surface without ever
    shipping the full result; :class:`~repro.core.properties.ConsensusViolation`
    is an ``AssertionError`` and therefore never mistaken for a pickling
    failure by the fallback logic.
    """
    index, config, reducer, check = task
    result = run_consensus(config)
    if check:
        result.report.raise_on_violation()
    return reducer(result, index)


#: Pool shared by every :func:`run_many` call inside a :func:`worker_pool`
#: context, so callers looping over small batches reuse one set of workers.
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_workers: int = 0


@contextmanager
def worker_pool(max_workers: Optional[int] = None) -> Iterator[None]:
    """Share one process pool across every :func:`run_many` call inside.

    A plan runs one :func:`run_many` batch per point; without this context
    each of those calls would spawn and tear down its own pool, and on
    spawn-based platforms the interpreter start-up can dwarf the
    simulations themselves.  Inside the context, parallel
    ``run_many`` calls reuse the shared executor (its worker count wins over
    per-call ``max_workers``, except that ``max_workers=1`` still forces the
    serial path).  Nested contexts reuse the outermost pool; ``max_workers=1``
    or a single usable CPU makes the whole context a no-op.
    """
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None:  # nested: reuse the outer pool
        yield
        return
    workers = default_workers() if max_workers is None else max_workers
    if workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {workers}")
    if workers == 1:
        yield
        return
    from concurrent.futures.process import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    _shared_pool, _shared_pool_workers = pool, workers
    try:
        yield
    finally:
        _shared_pool, _shared_pool_workers = None, 0
        pool.shutdown()


def plan_pool(
    plan: SweepPlan, max_workers: Optional[int], exec_mode: Optional[str]
) -> ContextManager[None]:
    """The :func:`worker_pool` a plan's per-point batches can use.

    A real pool only if some point resolves to ``"process"`` with more than
    one worker under :func:`resolve_exec_mode` -- the rule :func:`run_many`
    applies to each batch -- so a plan that runs coop (``REPRO_EXEC_MODE=coop``,
    or ``"auto"`` with one worker or n >= :data:`COOP_AUTO_THRESHOLD`) never
    builds a pool it would not submit to.  A claimed subset of a point's
    seeds resolves to coop whenever the whole point does.
    """
    workers = resolve_workers(max_workers, len(plan.seeds))
    pooled = workers > 1 and any(
        resolve_exec_mode(exec_mode, [point.config], workers) == "process"
        for point in plan.points
    )
    return worker_pool(max_workers if pooled else 1)


def _run_serial(
    configs: Sequence[ExperimentConfig],
    check: bool,
    reducer: Optional[Reducer] = None,
) -> List[Any]:
    """Serial path: check each run as it finishes, so a violation exits early."""
    results: List[Any] = []
    for index, config in enumerate(configs):
        result = run_consensus(config)
        if check:
            result.report.raise_on_violation()
        results.append(result if reducer is None else reducer(result, index))
    return results


def _drive_coop(
    config: ExperimentConfig,
    index: int,
    check: bool,
    reducer: Optional[Reducer],
    batch_events: int,
) -> Generator[None, None, Any]:
    """Driver generator for one run on the cooperative scheduler.

    Lazily prepares the run on its first turn (so only the scheduler's
    in-flight slots hold live kernels), advances the kernel one event batch
    per turn, and finalizes exactly like the serial path: check as the run
    finishes, reduce in place of shipping the full result.  Only the
    kernel-stepping time enters ``wall`` — the same region the serial path
    times (and the one metric deliberately excluded from summaries).
    """
    prepared = prepare_consensus(config)
    kernel_batch = prepared.kernel.run_batch
    wall = 0.0
    while True:
        started = perf_counter()
        sim_result = kernel_batch(batch_events)
        wall += perf_counter() - started
        if sim_result is not None:
            break
        yield
    result = prepared.finalize(sim_result, wall)
    if check:
        result.report.raise_on_violation()
    return result if reducer is None else reducer(result, index)


def _run_coop(
    configs: Sequence[ExperimentConfig],
    width: int,
    check: bool,
    reducer: Optional[Reducer] = None,
    batch_events: int = DEFAULT_BATCH_EVENTS,
) -> List[Any]:
    """Cooperative path: interleave all runs as co-hosted kernels.

    ``width`` caps how many kernels are live at once (the cooperative
    analogue of the pool's worker count); results come back in input order
    and bit-identical to the serial path — co-hosted runs share no RNG
    state, so the interleaving cannot change any draw.
    """
    drivers = [
        _drive_coop(config, index, check, reducer, batch_events)
        for index, config in enumerate(configs)
    ]
    return CooperativeScheduler(width=width).run(drivers)


def _should_fall_back(error: BaseException) -> bool:
    """Whether a pool error is a pickling/transport problem, not a task bug.

    Genuine exceptions raised by :func:`run_consensus` inside a worker must
    propagate immediately — silently re-running a big batch serially would
    roughly double its runtime before surfacing the same error.  Worker death
    surfaces as ``BrokenProcessPool``; CPython's pickle reports unpicklable
    objects as ``PicklingError`` or as ``TypeError`` / ``AttributeError`` /
    ``OSError`` / ``EOFError`` whose message names pickling, which is what
    the string check distinguishes.
    """
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, (BrokenProcessPool, pickle.PicklingError)):
        return True
    return (
        isinstance(error, (TypeError, AttributeError, OSError, EOFError))
        and "pickle" in str(error).lower()
    )


def _run_pool(
    configs: Sequence[ExperimentConfig],
    workers: int,
    reducer: Optional[Reducer] = None,
    check: bool = False,
) -> Optional[List[Any]]:
    """Run configs through a process pool; ``None`` means 'fall back to serial'."""
    global _shared_pool, _shared_pool_workers
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    shared = _shared_pool
    pool_workers = _shared_pool_workers if shared is not None else workers
    chunksize = default_chunksize(len(configs), pool_workers)
    if reducer is None:
        entry, tasks = _execute, list(configs)
    else:
        entry = _execute_reduced
        tasks = [(index, config, reducer, check) for index, config in enumerate(configs)]
    try:
        if shared is not None:
            return list(shared.map(entry, tasks, chunksize=chunksize))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(entry, tasks, chunksize=chunksize))
    except (BrokenProcessPool, pickle.PicklingError, TypeError, AttributeError, EOFError, OSError) as error:
        if not _should_fall_back(error):
            raise
        if shared is not None and isinstance(error, BrokenProcessPool):
            # A dead executor can never recover; uninstall it so later calls
            # in the worker_pool context spawn fresh pools instead of warning
            # and degrading to serial on every remaining point.
            _shared_pool, _shared_pool_workers = None, 0
        # Unpicklable configs/results or a pool whose workers died; the serial
        # rerun reproduces any genuine error deterministically.  Warn so a
        # large sweep never degrades to serial silently.
        warnings.warn(
            f"parallel run_many fell back to the serial path after "
            f"{type(error).__name__}: {error}",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def run_many(
    configs: Iterable[ExperimentConfig],
    max_workers: Optional[int] = None,
    check: bool = False,
    reducer: Optional[Reducer] = None,
    exec_mode: Optional[str] = None,
) -> List[Any]:
    """Run every configuration, in parallel when it pays, in input order.

    Results are returned in the order of ``configs`` regardless of worker
    scheduling, so callers see exactly what the serial path would produce.
    With ``check``, the first offending configuration in input order raises;
    on the serial path this exits as soon as the offending run finishes,
    while the pool path checks after the batch completes.

    With a ``reducer``, each worker applies it to its ``RunResult`` before
    returning, so only the reducer's compact output (O(1) bytes for the
    standard :class:`~.aggregate.SummaryReducer`) crosses the pipe instead
    of the full result; the returned list holds the reduced values, still
    in input order, and property checks happen inside the workers.
    Submission is batched by :func:`default_chunksize`.

    ``exec_mode`` (``"process"``, ``"coop"`` or ``"auto"``; default from
    ``REPRO_EXEC_MODE``, else process) selects the engine — see the module
    docstring.  In coop mode ``max_workers`` caps how many kernels are
    co-hosted at once instead of spawning anything.
    """
    configs = list(configs)
    if max_workers is None and _shared_pool is not None:
        workers = _shared_pool_workers
    else:
        workers = resolve_workers(max_workers, len(configs))
    mode = resolve_exec_mode(exec_mode, configs, workers)
    if mode == "coop" and len(configs) > 1:
        return _run_coop(configs, workers, check=check, reducer=reducer)
    if mode != "coop" and workers > 1 and len(configs) > 1:
        results = _run_pool(configs, workers, reducer=reducer, check=check)
        if results is not None:
            if check and reducer is None:
                for result in results:
                    result.report.raise_on_violation()
            return results
    return _run_serial(configs, check, reducer)
