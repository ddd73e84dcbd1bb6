"""What a sweep directory says, as JSON views and one text snapshot.

``python -m repro status`` and ``python -m repro serve`` show the same
views of a run directory; this module holds them, and imports no HTTP
machinery, so a one-shot ``status`` loads none.  It reads the directory
*only* through :class:`~repro.harness.coordinator.RunDirectory` (it never
joins the sweep and never names a file), so it can watch a run it did not
start, a run on a shared filesystem, or the wreckage of a run whose
workers were killed.

- :class:`SweepMonitor` -- the JSON views behind serve's four endpoints:
  ``/status`` (counts + fleet telemetry), ``/progress`` (per-point
  states), ``/workers`` (manifest rows + live lease heartbeats), and
  ``/aggregate`` (the :class:`~repro.obs.merge.IncrementalMerger`'s
  partial aggregates, folded on demand).
- :func:`render_status_text` -- one textual snapshot of a run directory;
  shared verbatim by ``status`` (with or without ``--watch``, see
  :func:`watch_status`) and serve's HTML page (:mod:`repro.obs.serve`).
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from ..harness.aggregate import RunAggregate
from ..harness.coordinator import RunDirectory
from ..harness.distributed import SweepPlan
from .merge import IncrementalMerger
from .telemetry import merge_snapshots


def _finite(value: float) -> Optional[float]:
    """A float as JSON allows it: ``None`` for the infinities and NaN."""
    return value if math.isfinite(value) else None


def aggregate_to_json(aggregate: RunAggregate) -> Dict[str, Any]:
    """One :class:`~repro.harness.aggregate.RunAggregate` as plain JSON.

    Counters plus count/mean/std/min/max per metric -- the digest a
    dashboard needs; percentile sketches stay in the checkpoints.
    """
    return {
        "count": aggregate.count,
        "terminated_count": aggregate.terminated_count,
        "safe_count": aggregate.safe_count,
        "decided_count": aggregate.decided_count,
        "metrics": {
            name: {
                "count": stats.count,
                "mean": stats.mean,
                "std": stats.std,
                "min": _finite(stats.minimum),
                "max": _finite(stats.maximum),
            }
            for name, stats in sorted(aggregate.stats.items())
        },
    }


class SweepMonitor:
    """Read-only JSON views of one sweep directory.

    ``plan`` enables the ``/aggregate`` endpoint (folding needs the plan's
    run indexing); the other three endpoints work from the on-disk
    artifacts alone, so a monitor without a plan still serves them.
    Thread-safe: the HTTP server handles requests on multiple threads and
    the merger folds under a lock.
    """

    def __init__(self, out_dir: Union[str, Path], plan: Optional[SweepPlan] = None) -> None:
        self.out = Path(out_dir)
        self.plan = plan
        self._merger = IncrementalMerger(self.out, plan) if plan is not None else None
        self._lock = threading.Lock()

    # -------------------------------------------------------------- raw views
    @staticmethod
    def _worker_snapshots(directory: RunDirectory) -> Dict[str, Dict[str, Any]]:
        """Freshest telemetry snapshot per worker, manifests and leases pooled.

        A worker's manifest snapshot is rewritten per completed point while
        its lease snapshot refreshes every heartbeat; per worker the one
        with the later ``sampled_at`` wins, so mid-point progress shows up
        without double counting.
        """
        freshest: Dict[str, Dict[str, Any]] = {}

        def offer(worker: str, snap: Any) -> None:
            if not isinstance(snap, dict):
                return
            held = freshest.get(worker)
            if held is None or snap.get("sampled_at", 0) >= held.get("sampled_at", 0):
                freshest[worker] = snap

        for row in directory.worker_rows:
            offer(row["worker"], row.get("telemetry"))
        for lease in directory.leases:
            offer(lease.worker, lease.telemetry)
        return freshest

    # -------------------------------------------------------------- endpoints
    def status(self) -> Dict[str, Any]:
        """The ``/status`` payload: counts, runs, and pooled fleet telemetry.

        A directory nothing was written to yet says so; a malformed or
        wrong-version artifact raises the reader's error naming the file.
        """
        return self._view(self._status)

    def progress(self) -> Dict[str, Any]:
        """The ``/progress`` payload: every point's state and checkpoints."""
        return self._view(self._progress)

    def workers(self) -> Dict[str, Any]:
        """The ``/workers`` payload: manifest rows plus live lease heartbeats."""
        return self._view(self._workers)

    def _view(self, build: Callable[[RunDirectory], Dict[str, Any]]) -> Dict[str, Any]:
        """One fresh read of the directory through ``build``, unless nothing is written yet."""
        directory = RunDirectory(self.out)
        if directory.header is None:
            return {"error": f"{self.out} holds no sweep artifacts (yet)"}
        return build(directory)

    def _status(self, directory: RunDirectory) -> Dict[str, Any]:
        status = directory.steal_status()
        return {
            **vars(status),
            "workers": len(status.workers),
            "telemetry": merge_snapshots(self._worker_snapshots(directory).values()),
            "sampled_at": time.time(),
        }

    def _progress(self, directory: RunDirectory) -> Dict[str, Any]:
        points = directory.point_rows
        return {
            "experiment": directory.header["experiment"],
            "shard_count": directory.shard_count,
            "done": sum(1 for row in points if row["state"] == "done"),
            "points_total": len(points),
            "points": points,
            "sampled_at": time.time(),
        }

    def _workers(self, directory: RunDirectory) -> Dict[str, Any]:
        now = time.time()
        unfinished = {row["index"] for row in directory.point_rows if row["state"] != "done"}
        leases = [
            {
                "point_index": lease.point_index,
                "worker": lease.worker,
                "generation": lease.generation,
                "heartbeat_age": None if lease.corrupt else max(now - lease.renewed_at, 0.0),
                "ttl": lease.ttl,
                "expired": lease.expired(now),
                "telemetry": lease.telemetry,
            }
            for lease in directory.leases
            if lease.point_index in unfinished
        ]
        return {"workers": directory.worker_rows, "leases": leases, "sampled_at": now}

    def aggregate(self) -> Dict[str, Any]:
        """The ``/aggregate`` payload: the folded (possibly partial) prefix.

        Each request folds newly landed checkpoints first, so the answer is
        as fresh as the directory; folded points never re-fold.  The partial
        aggregates are what the batch merge will hold for those points: it
        is this same merger, drained once (see :mod:`repro.obs.merge`).
        """
        if self._merger is None:
            return {
                "error": "no plan available to fold aggregates (the artifacts "
                "record no experiment name); use /status and /progress",
            }
        with self._lock:
            self._merger.poll()
            return {
                "complete": self._merger.complete,
                "folded": len(self._merger.aggregates),
                "points_total": len(self._merger.plan.points),
                "pending": self._merger.pending(),
                "aggregates": {
                    label: aggregate_to_json(aggregate)
                    for label, aggregate in self._merger.aggregates.items()
                },
                "sampled_at": time.time(),
            }


# ------------------------------------------------------------ text rendering
def render_status_text(out_dir: Union[str, Path], plan: Optional[SweepPlan] = None) -> str:
    """One human-readable snapshot of a sweep directory.

    The single renderer behind ``python -m repro status`` (with or without
    ``--watch``) and the serve HTML page, so the browser and the terminal
    always agree, whichever policies wrote the directory.  It reads the
    directory once, through the monitor's own views.
    """
    monitor = SweepMonitor(out_dir, plan)
    directory = RunDirectory(out_dir)
    if directory.header is None:
        return f"{monitor.out} holds no sweep artifacts (yet)"
    status = monitor._status(directory)
    lines = [
        f"{status['experiment'] or status['plan_key'] or '?'}: "
        f"{status['done']}/{status['points_total']} points done "
        f"({status['stolen']} stolen), {status['leased']} leased, "
        f"{status['orphaned']} orphaned, {status['unclaimed']} unclaimed, {status['refused']} refused"
    ]
    telemetry = status["telemetry"]
    counters = telemetry.get("counters") or {}
    if counters:
        shown = ", ".join(f"{name}={counters[name]:g}" for name in sorted(counters))
        timers = telemetry.get("timers") or {}
        for name, unit in (("point_seconds", "busy"), ("gc_seconds", "gc")):
            timer = timers.get(name)
            if timer:
                shown += f", {unit} {timer['total']:.2f}s/{int(timer['count'])}"
        lines.append(f"fleet: {shown}")
    owned: Dict[str, List[bool]] = {}
    for row in directory.point_rows:
        for shard, accepted in row["checkpoints"].items():
            owned.setdefault(shard, []).append(accepted)
    lines.append(
        "checkpoints by shard: "
        + ", ".join(f"{shard} {sum(found)}/{len(found)}" for shard, found in owned.items())
    )
    refused = [row for row in directory.point_rows if row["state"] == "refused"]
    lines += [f"  refused point {row['index']:04d} {row['label']!r}: {row['reason']}" for row in refused]
    workers = monitor._workers(directory)
    for row in workers["workers"]:
        lines.append(
            f"  worker {row['worker']} (shard {row['shard']}): {row['computed']} computed "
            f"({row['stolen']} stolen, {row['lost']} lost), {row['runs_executed']} runs"
        )
    for lease in workers["leases"]:
        age = lease["heartbeat_age"]
        age_text = "?" if age is None else f"{age:.1f}s"
        state = "EXPIRED" if lease["expired"] else "live"
        lines.append(
            f"  lease point {lease['point_index']:04d} gen {lease['generation']} "
            f"held by {lease['worker']} ({state}, heartbeat {age_text} ago)"
        )
    return "\n".join(lines)


def watch_status(
    out_dir: Union[str, Path],
    interval: float,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> None:
    """Poll-and-redraw :func:`render_status_text` every ``interval`` seconds.

    ``iterations`` bounds the loop (``None`` runs until interrupted; tests
    pass a small count); the redraw uses ANSI clear-screen so a terminal
    shows one live page rather than a scrolling log.
    """
    output = sys.stdout if stream is None else stream
    count = 0
    while iterations is None or count < iterations:
        if count:
            time.sleep(interval)
        text = render_status_text(out_dir)
        stamp = time.strftime("%H:%M:%S")
        output.write(f"\x1b[2J\x1b[H{text}\n\n(refreshed {stamp}, every {interval:g}s; Ctrl-C to stop)\n")
        output.flush()
        count += 1
