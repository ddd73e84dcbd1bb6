"""The live sweep service: ``python -m repro serve`` and ``status --watch``.

A sweep directory already contains everything an observer needs -- the
plan header or shard manifests, the lease files with their heartbeat
timestamps and piggybacked telemetry, and the per-point checkpoints.
This module reads *only* those artifacts, and only through
:class:`~repro.harness.coordinator.RunDirectory` (it never joins the
sweep and never names a file), so it can watch a run it did not start, a
run on a shared filesystem, or the wreckage of a run whose workers were
killed.

Three layers, smallest first:

- :func:`render_status_text` -- one textual snapshot of a run directory;
  shared verbatim by ``status --watch`` and the HTML page.
- :class:`SweepMonitor` -- the JSON views behind the four endpoints:
  ``/status`` (counts + fleet telemetry), ``/progress`` (per-point
  states), ``/workers`` (manifest rows + live lease heartbeats), and
  ``/aggregate`` (the :class:`~repro.obs.merge.IncrementalMerger`'s
  partial aggregates, folded on demand).
- :func:`make_server` -- a stdlib :class:`~http.server.ThreadingHTTPServer`
  wiring the monitor to HTTP; ``/`` serves one minimal auto-refreshing
  HTML page around the text renderer.

Everything is stdlib; the service adds no dependency and no background
thread of its own (folding happens inside the request that asks for it).
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from ..harness.aggregate import RunAggregate
from ..harness.coordinator import RunDirectory
from ..harness.distributed import ManifestError, SweepPlan
from .merge import IncrementalMerger
from .telemetry import merge_snapshots


def _finite(value: float) -> Optional[float]:
    """A float as JSON allows it: ``None`` for the infinities and NaN."""
    return value if math.isfinite(value) else None


def aggregate_to_json(aggregate: RunAggregate) -> Dict[str, Any]:
    """One :class:`~repro.harness.aggregate.RunAggregate` as plain JSON.

    Counters plus count/mean/std/min/max per metric -- the digest a
    dashboard needs; percentile sketches stay in the pickled artifacts.
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
        directory = RunDirectory(self.out)
        if directory.layout == "steal":
            status = directory.steal_status()
            return {
                "mode": "steal",
                "experiment": status.experiment,
                "plan_key": status.plan_key,
                "points_total": status.points_total,
                "done": status.done,
                "leased": status.leased,
                "orphaned": status.orphaned,
                "unclaimed": status.unclaimed,
                "stolen": status.stolen,
                "runs_total": status.runs_total,
                "workers": len(status.workers),
                "telemetry": merge_snapshots(self._worker_snapshots(directory).values()),
                "sampled_at": time.time(),
            }
        if directory.layout == "static":
            return {
                "mode": "static",
                "experiment": directory.provenance.get("experiment"),
                "plan_key": directory.provenance.get("plan_key"),
                "shards": directory.shard_rows,
                "sampled_at": time.time(),
            }
        return {"mode": None, "error": f"{self.out} holds no sweep artifacts (yet)"}

    def progress(self) -> Dict[str, Any]:
        """The ``/progress`` payload: every point's current state."""
        directory = RunDirectory(self.out)
        if directory.layout != "steal":
            # Static shards have no per-point lease state; their progress
            # *is* the per-shard status rows.
            return self.status()
        points = directory.point_rows
        return {
            "mode": "steal",
            "experiment": directory.provenance.get("experiment"),
            "done": sum(1 for row in points if row["state"] == "done"),
            "points_total": len(points),
            "points": points,
            "sampled_at": time.time(),
        }

    def workers(self) -> Dict[str, Any]:
        """The ``/workers`` payload: manifest rows plus live lease heartbeats."""
        directory = RunDirectory(self.out)
        if directory.layout != "steal":
            return self.status()
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
        return {
            "mode": "steal",
            "workers": directory.worker_rows,
            "leases": leases,
            "sampled_at": now,
        }

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

    The single renderer behind ``python -m repro status --watch`` and the
    serve HTML page, so the browser and the terminal always agree.
    """
    monitor = SweepMonitor(out_dir, plan)
    status = monitor.status()
    lines: List[str] = []
    if status.get("mode") == "steal":
        lines.append(
            f"{status['experiment'] or status['plan_key'] or '?'}: "
            f"{status['done']}/{status['points_total']} points done "
            f"({status['stolen']} stolen), {status['leased']} leased, "
            f"{status['orphaned']} orphaned, {status['unclaimed']} unclaimed"
        )
        telemetry = status.get("telemetry") or {}
        counters = telemetry.get("counters") or {}
        if counters:
            shown = ", ".join(f"{name}={counters[name]:g}" for name in sorted(counters))
            collector = (telemetry.get("timers") or {}).get("gc_seconds")
            if collector:
                shown += f", gc {collector['total']:.2f}s/{int(collector['count'])}"
            lines.append(f"fleet: {shown}")
        workers = monitor.workers()
        for row in workers.get("workers", []):
            lines.append(
                f"  worker {row['worker']}: {row['computed']} computed "
                f"({row['stolen']} stolen, {row['lost']} lost), "
                f"{row['runs_executed']} runs"
            )
        for lease in workers.get("leases", []):
            age = lease["heartbeat_age"]
            age_text = "?" if age is None else f"{age:.1f}s"
            state = "EXPIRED" if lease["expired"] else "live"
            lines.append(
                f"  lease point {lease['point_index']:04d} gen {lease['generation']} "
                f"held by {lease['worker']} ({state}, heartbeat {age_text} ago)"
            )
    elif status.get("mode") == "static":
        lines.append(f"{status['experiment'] or status['plan_key'] or '?'}: static shards")
        for shard in status["shards"]:
            lines.append(
                f"  shard {shard['shard']}: {shard['points_done']}/{shard['points_total']} "
                f"points, {shard['runs_done']}/{shard['runs_total']} runs"
            )
    else:
        lines.append(status.get("error", f"{out_dir}: no sweep artifacts"))
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


# -------------------------------------------------------------- http service
_HTML_PAGE = """<!doctype html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh}">
<title>repro sweep: {title}</title>
</head>
<body style="font-family: monospace; margin: 2em;">
<h1 style="font-size: 1.2em;">sweep {title}</h1>
<pre>{text}</pre>
<p>JSON: <a href="/status">/status</a> · <a href="/progress">/progress</a> ·
<a href="/workers">/workers</a> · <a href="/aggregate">/aggregate</a></p>
</body>
</html>
"""


class _MonitorHandler(BaseHTTPRequestHandler):
    """Route GET requests to the server's :class:`SweepMonitor`."""

    server_version = "repro-serve"

    def do_GET(self) -> None:  # noqa: N802 (http.server's required casing)
        monitor: SweepMonitor = self.server.monitor  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        routes = {
            "/status": monitor.status,
            "/progress": monitor.progress,
            "/workers": monitor.workers,
            "/aggregate": monitor.aggregate,
        }
        try:
            if path == "/":
                text = render_status_text(monitor.out, monitor.plan)
                title = monitor.out.name or str(monitor.out)
                body = _HTML_PAGE.format(refresh=2, title=_escape(title), text=_escape(text))
                self._reply(200, body.encode("utf-8"), "text/html; charset=utf-8")
                return
            view = routes.get(path)
            if view is None:
                payload = {"error": f"unknown endpoint {path!r}", "endpoints": sorted(routes)}
                self._reply_json(404, payload)
                return
            self._reply_json(200, view())
        except ManifestError as error:
            self._reply_json(500, {"error": str(error)})

    def _reply_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._reply(code, json.dumps(payload, indent=2).encode("utf-8"), "application/json")

    def _reply(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (the CLI prints the URL once)."""


def _escape(text: str) -> str:
    """Minimal HTML escaping for the one page this module serves."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def make_server(
    out_dir: Union[str, Path],
    plan: Optional[SweepPlan] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Build (but do not start) the monitoring HTTP server.

    ``port=0`` binds an ephemeral port -- read the actual one from
    ``server.server_address`` -- which is what the end-to-end tests and
    the smoke script use to avoid collisions.  The caller owns the
    server's lifecycle: ``serve_forever()`` to run, ``shutdown()`` +
    ``server_close()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), _MonitorHandler)
    server.daemon_threads = True
    server.monitor = SweepMonitor(out_dir, plan)  # type: ignore[attr-defined]
    return server
