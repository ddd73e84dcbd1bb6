"""A lightweight in-process metrics registry for sweep workers.

:class:`Telemetry` holds three kinds of instruments, all JSON-scalar
valued so a snapshot serializes directly into the coordinator's lease
and manifest files:

- **counters** -- monotonically increasing totals (``points_computed``,
  ``runs_executed``, ``points_stolen``);
- **gauges** -- last-written point-in-time values (``last_checkpoint_at``);
- **timers** -- wall-clock duration accumulators (``point_seconds``,
  ``gc_seconds``) recording count / total / max per name.

The registry is thread-safe: the work-stealing scheduler samples it from
the lease-renewal daemon thread while the worker loop updates it.  Rates
(points/sec, events/sec) are intentionally *not* computed here -- a
snapshot carries totals plus ``sampled_at``, and readers (the serve
endpoints, ``status --watch``) derive rates from successive snapshots or
from the sweep's start time, so clock handling stays in one place.

:func:`merge_snapshots` folds the per-worker snapshots embedded in lease
and manifest files into one fleet-wide view: counters and timer
count/total sum, timer max and gauges take the maximum, ``sampled_at``
keeps the freshest sample.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, Optional


class Telemetry:
    """Thread-safe counters, gauges, and wall-clock timers."""

    def __init__(self, clock=time.monotonic, wall_clock=time.time) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, Dict[str, float]] = {}
        self._clock = clock
        self._wall_clock = wall_clock

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one ``seconds``-long observation under timer ``name``."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = {"count": 0, "total": 0.0, "max": 0.0}
            timer["count"] += 1
            timer["total"] += seconds
            timer["max"] = max(timer["max"], seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and record it under timer ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            self.observe(name, self._clock() - start)

    @contextmanager
    def time_collector(self, name: str = "gc_seconds") -> Iterator[None]:
        """Record every cyclic-collector pass under timer ``name`` in the block.

        A ``gc.callbacks`` hook, registered on entry and removed on every
        exit path.  The kernel drivers pause the collector while a run
        executes (:func:`repro.sim.kernel.collector_paused`), so what this
        timer shows is the collector's remaining bill: prepare, finalize,
        reduction, checkpointing.  The hook never takes the registry lock --
        a collection can start inside any allocation, including one made by
        a thread that already holds it -- so the timer is created up front
        and the hook (passes are serialized by the interpreter) updates it
        in place.
        """
        with self._lock:
            timer = self._timers.setdefault(name, {"count": 0, "total": 0.0, "max": 0.0})
        started = self._clock()

        def hook(phase: str, info: Dict[str, int]) -> None:
            nonlocal started
            if phase == "start":
                started = self._clock()
                return
            elapsed = self._clock() - started
            timer["count"] += 1
            timer["total"] += elapsed
            timer["max"] = max(timer["max"], elapsed)

        gc.callbacks.append(hook)
        try:
            yield
        finally:
            gc.callbacks.remove(hook)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of every instrument, stamped with now."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {name: dict(timer) for name, timer in self._timers.items()},
                "sampled_at": self._wall_clock(),
            }


def merge_snapshots(snapshots: Iterable[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold per-worker telemetry snapshots into one fleet-wide snapshot.

    Counters sum; gauges take the maximum (the fleet gauges in use are
    "latest timestamp" style, where max *is* latest); timers sum count and
    total but keep the max of maxes; ``sampled_at`` keeps the freshest
    sample.  ``None`` entries (workers that never reported) are skipped.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    timers: Dict[str, Dict[str, float]] = {}
    sampled_at: Optional[float] = None
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = value if name not in gauges else max(gauges[name], value)
        for name, timer in snap.get("timers", {}).items():
            merged = timers.setdefault(name, {"count": 0, "total": 0.0, "max": 0.0})
            merged["count"] += timer.get("count", 0)
            merged["total"] += timer.get("total", 0.0)
            merged["max"] = max(merged["max"], timer.get("max", 0.0))
        stamp = snap.get("sampled_at")
        if stamp is not None:
            sampled_at = stamp if sampled_at is None else max(sampled_at, stamp)
    merged_snapshot: Dict[str, Any] = {
        "counters": counters,
        "gauges": gauges,
        "timers": timers,
    }
    if sampled_at is not None:
        merged_snapshot["sampled_at"] = sampled_at
    return merged_snapshot
