"""The live sweep service: ``python -m repro serve``.

A stdlib :class:`~http.server.ThreadingHTTPServer` wiring the
:class:`~repro.obs.status.SweepMonitor` views of one run directory to
HTTP: ``/status``, ``/progress``, ``/workers`` and ``/aggregate`` answer
with its JSON, and ``/`` serves one minimal auto-refreshing HTML page
around :func:`~repro.obs.status.render_status_text`, the text ``python -m
repro status`` prints.  The views live in :mod:`repro.obs.status`, so a
one-shot ``status`` never loads this module or ``http.server``.

Everything is stdlib; the service adds no dependency and no background
thread of its own (folding happens inside the request that asks for it).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..harness.distributed import ManifestError, SweepPlan
from .status import SweepMonitor, render_status_text


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
