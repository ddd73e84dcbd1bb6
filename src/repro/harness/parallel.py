"""Parallel execution engine for experiment runs.

The paper's experiments are embarrassingly parallel: every repetition is an
independent, fully seeded :func:`~repro.harness.runner.run_consensus` call.
:func:`run_many` runs a batch on ``K = max_workers`` workers -- the calling
process and ``K - 1`` forked helpers -- while keeping the result list in
input order, so a parallel sweep is *bit-identical* to the serial one, only
faster.

How a batch runs on ``K > 1`` workers:

* it is cut into contiguous chunks (:func:`default_chunksize`), which the
  caller and the helpers claim one at a time, in input order: a helper is
  handed its next chunk the moment it returns one, and the caller runs
  chunks itself until none is left, so no worker waits while work remains;
* results land at their input indices; with ``check``, the lowest failing
  input index raises, exactly as on the serial path.

Runs share no RNG state (each owns a seeded
:class:`~repro.sim.rng.RandomSource`), so which worker executes a run, and
when, cannot change any draw.

Fallbacks keep the engine safe to use unconditionally:

* ``max_workers=1`` (or a single configuration) runs serially in-process
  and never imports :mod:`multiprocessing`;
* configurations or results that cannot be pickled, and a helper that dies
  (e.g. killed by the OS), cost only the chunks they hit: that helper takes
  no more chunks, the caller re-runs the lost ones serially, which
  reproduces any genuine error deterministically, and one
  ``RuntimeWarning`` says so.

The default worker count comes from the ``REPRO_MAX_WORKERS`` environment
variable when set, else from the CPUs usable by this process
(affinity-aware, so container CPU quotas are respected).  ``exec_mode`` is
deprecated: :func:`run_many` and
:func:`~repro.harness.distributed.run_plan` still validate it, and ignore it.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from collections import deque
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING, Any, ContextManager, Dict, Iterable, Iterator, List, Optional, Sequence,
)

from .aggregate import Reducer
from .config import ExperimentConfig
# ``prepare_consensus`` is only re-exported: bench/test_bench_contract.py
# checks that the tracer leaves this module's binding unwrapped.
from .runner import prepare_consensus, run_consensus  # noqa: F401

# ``concurrent.futures.process`` pulls in ``multiprocessing``; it is imported
# where a pool is built, so a single-worker run loads neither.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures.process import ProcessPoolExecutor

    from .distributed import SweepPlan

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"

#: The names the deprecated ``exec_mode`` keyword accepts; neither changes
#: how a batch runs.
EXEC_MODES = ("process", "coop")


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


def check_exec_mode(exec_mode: Optional[str]) -> None:
    """Reject an unknown ``exec_mode``; a known one (deprecated) changes nothing."""
    if exec_mode is not None and exec_mode not in EXEC_MODES:
        raise ValueError(f"unknown exec_mode {exec_mode!r}; choose from {EXEC_MODES}")


def default_chunksize(task_count: int, workers: Optional[int] = None) -> int:
    """Chunk size that amortises pipe round-trips for tiny runs.

    One pickled task per round-trip is wasteful when each simulation lasts
    microseconds; ~4 chunks per worker keep the pipe quiet while still
    letting the workers balance uneven run times.  The cap keeps very large
    batches from degenerating into one chunk per worker (which would
    serialise behind the slowest chunk).
    """
    if task_count <= 0:
        return 1
    if workers is None:
        workers = available_cpus()
    return max(1, min(64, math.ceil(task_count / (max(workers, 1) * 4))))


#: Pool of helpers shared by every :func:`run_many` call inside a
#: :func:`worker_pool` context, so callers looping over small batches reuse
#: one set of processes; ``_shared_pool_workers`` counts the caller too.
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_workers: int = 0


@contextmanager
def worker_pool(max_workers: Optional[int] = None) -> Iterator[None]:
    """Share one pool of ``max_workers - 1`` helpers across every :func:`run_many` inside.

    A plan runs one :func:`run_many` batch per point; without this context
    each of those calls would fork and tear down its own helpers.  Inside
    the context, parallel ``run_many`` calls reuse the shared helpers (the
    context's worker count wins over per-call ``max_workers``, except that
    ``max_workers=1`` still forces the serial path).  Nested contexts reuse
    the outermost pool; ``max_workers=1`` makes the whole context a no-op.
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

    pool = ProcessPoolExecutor(max_workers=workers - 1)
    _shared_pool, _shared_pool_workers = pool, workers
    try:
        yield
    finally:
        _shared_pool, _shared_pool_workers = None, 0
        pool.shutdown()


def plan_pool(plan: SweepPlan, max_workers: Optional[int]) -> ContextManager[None]:
    """The :func:`worker_pool` a plan's per-point batches share.

    A real pool only when a point has more than one run and more than one
    worker is asked for -- the rule :func:`run_many` applies to each batch.
    """
    pooled = resolve_workers(max_workers, len(plan.seeds)) > 1
    return worker_pool(max_workers if pooled else 1)


def _run_serial(
    configs: Sequence[ExperimentConfig],
    check: bool,
    reducer: Optional[Reducer] = None,
    start: int = 0,
) -> List[Any]:
    """Run ``configs`` (input indices from ``start``) in this process, in order.

    Each run is checked as it finishes, so a violation exits early; with a
    ``reducer`` only its compact output is kept.  A helper runs its chunks
    through this function too, so only that output crosses the pipe.
    """
    results: List[Any] = []
    for index, config in enumerate(configs, start):
        result = run_consensus(config)
        if check:
            result.report.raise_on_violation()
        results.append(result if reducer is None else reducer(result, index))
    return results


def _should_fall_back(error: BaseException) -> bool:
    """Whether a pool error is a pickling/transport problem, not a task bug.

    Genuine exceptions raised by :func:`run_consensus` inside a helper must
    propagate -- re-running them serially would only reproduce them later.
    Helper death surfaces as ``BrokenProcessPool``; CPython's pickle reports
    unpicklable objects as ``PicklingError`` or as ``TypeError`` /
    ``AttributeError`` / ``OSError`` / ``EOFError`` whose message names
    pickling, which is what the string check distinguishes.
    """
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, (BrokenProcessPool, pickle.PicklingError)):
        return True
    return (
        isinstance(error, (TypeError, AttributeError, OSError, EOFError))
        and "pickle" in str(error).lower()
    )


def _give_up_helpers(error: BaseException, shared: Optional[ProcessPoolExecutor]) -> None:
    """Warn that the caller re-runs what the helpers lost; uninstall a dead shared pool."""
    global _shared_pool, _shared_pool_workers
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, BrokenProcessPool) and shared is not None and shared is _shared_pool:
        # A dead executor never recovers; uninstall it so later calls in the
        # worker_pool context fork fresh helpers instead of warning and
        # degrading to serial on every remaining point.
        _shared_pool, _shared_pool_workers = None, 0
    # Warn so a large sweep never degrades to serial silently.
    warnings.warn(
        f"parallel run_many fell back to the serial path after "
        f"{type(error).__name__}: {error}",
        RuntimeWarning,
        stacklevel=4,
    )


def _run_pool(
    configs: Sequence[ExperimentConfig],
    workers: int,
    check: bool,
    reducer: Optional[Reducer],
) -> List[Any]:
    """Run ``configs`` on the caller plus ``workers - 1`` helpers (see the module docstring)."""
    import threading
    from concurrent.futures import Future
    from concurrent.futures.process import ProcessPoolExecutor

    shared = _shared_pool
    if shared is not None:
        workers = _shared_pool_workers
    size = default_chunksize(len(configs), workers)
    todo = deque(range(0, len(configs), size))  # chunk starts, claimed in order
    # Chunk start -> a helper's Future, or the caller's results or error.
    chunks: Dict[int, Any] = {}
    lock = threading.Lock()
    pool = shared if shared is not None else ProcessPoolExecutor(max_workers=workers - 1)

    def feed(finished: Optional[Future] = None) -> None:
        """Hand a helper the next chunk; called again as each of its chunks finishes."""
        if finished is not None and (finished.cancelled() or finished.exception() is not None):
            # A helper whose chunk failed takes no more.  The caller re-runs a
            # chunk lost to pickling or a dead helper; after a genuine error
            # later chunks cannot change what raises.
            if not finished.cancelled() and not _should_fall_back(finished.exception()):
                with lock:
                    todo.clear()
            return
        with lock:
            if not todo:
                return
            start = todo.popleft()
            try:
                future = pool.submit(_run_serial, configs[start:start + size], check, reducer, start)
            except Exception as error:  # a broken or shut-down pool
                future = Future()
                future.set_exception(error)
            chunks[start] = future
        future.add_done_callback(feed)

    try:
        for _ in range(workers - 1):
            feed()
        while True:
            with lock:
                if not todo:
                    break
                start = todo.popleft()
            try:
                chunks[start] = _run_serial(configs[start:start + size], check, reducer, start)
            except Exception as error:
                chunks[start] = error
                with lock:
                    todo.clear()  # later chunks cannot change what raises
        # Every chunk below a failing one was claimed before it, so the
        # first failure met in input order is the lowest failing index.
        results: List[Any] = []
        warned = False
        for start in sorted(chunks):
            outcome = chunks[start]
            if isinstance(outcome, Future):
                error = outcome.exception()
                if error is None:
                    outcome = outcome.result()
                elif _should_fall_back(error):
                    if not warned:
                        warned = True
                        _give_up_helpers(error, shared)
                    outcome = _run_serial(configs[start:start + size], check, reducer, start)
                else:
                    outcome = error
            if isinstance(outcome, Exception):
                raise outcome
            results.extend(outcome)
        return results
    finally:
        with lock:
            todo.clear()
        for outcome in chunks.values():
            if isinstance(outcome, Future):
                outcome.cancel()
        if shared is None:
            pool.shutdown()


def run_many(
    configs: Iterable[ExperimentConfig],
    max_workers: Optional[int] = None,
    check: bool = False,
    reducer: Optional[Reducer] = None,
    exec_mode: Optional[str] = None,
) -> List[Any]:
    """Run every configuration, on up to ``max_workers`` processes, in input order.

    ``max_workers`` counts processes in total, this one included: the caller
    runs chunks of the batch itself next to ``max_workers - 1`` forked
    helpers (see the module docstring).  Results are returned in the order
    of ``configs`` regardless of scheduling, so callers see exactly what the
    serial path would produce.  With ``check``, the lowest offending input
    index raises; every run is checked as it finishes, on whichever worker
    ran it.

    With a ``reducer``, each run is reduced where it ran, so only the
    reducer's compact output (O(1) bytes for the standard
    :class:`~.aggregate.SummaryReducer`) crosses the pipe instead of the
    full result; the returned list holds the reduced values, still in input
    order.  ``exec_mode`` is deprecated and has no effect; an unknown name
    still raises ``ValueError``.
    """
    check_exec_mode(exec_mode)
    configs = list(configs)
    if max_workers is None and _shared_pool is not None:
        workers = _shared_pool_workers
    else:
        workers = resolve_workers(max_workers, len(configs))
    if workers > 1 and len(configs) > 1:
        return _run_pool(configs, workers, check, reducer)
    return _run_serial(configs, check, reducer)
