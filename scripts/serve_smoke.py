"""End-to-end smoke of the live sweep service (``make serve-smoke``).

Runs a small work-stealing sweep, kills the worker halfway through (the
same ``run_many`` seam the coordinator tests use), starts the monitoring
server on an ephemeral port, and drives every endpoint over real HTTP:

- ``/status`` must report the half-finished counts and pooled telemetry,
- ``/progress`` must show exactly the checkpointed points as ``done``,
- ``/workers`` must list the killed worker's manifest row,
- ``/aggregate`` must fold the completed prefix and mark it incomplete,
- ``/`` must render the HTML page around the shared text renderer.

Then a second worker finishes the directory, ``/aggregate`` flips to
complete, and the served aggregates are checked bit-identical to the
batch ``merge_stolen`` fold.  Exits nonzero on any violated expectation.
"""

import json
import sys
import threading
import time
import urllib.request
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import parallel  # noqa: E402
from repro.harness.coordinator import merge_stolen, run_work_stealing  # noqa: E402
from repro.obs.serve import aggregate_to_json, make_server, render_status_text  # noqa: E402

KILL_AFTER_POINTS = 2


def build_plan():
    from repro.experiments import e1_figure1
    from repro.experiments.common import default_seeds

    return e1_figure1.plan(seeds=default_seeds(3))


def get_json(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def run_killed_worker(plan, out_dir):
    """One worker that dies after ``KILL_AFTER_POINTS`` checkpointed points."""
    real_run_many = parallel.run_many
    calls = {"count": 0}

    def dying(*args, **kwargs):
        if calls["count"] >= KILL_AFTER_POINTS:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    parallel.run_many = dying
    try:
        run_work_stealing(plan, out_dir, worker="victim", max_workers=1, lease_ttl=0.05)
        raise AssertionError("the victim worker should have been killed")
    except KeyboardInterrupt:
        pass
    finally:
        parallel.run_many = real_run_many


def main():
    plan = build_plan()
    with TemporaryDirectory(prefix="serve-smoke-") as tmp:
        out = Path(tmp) / "runs"
        run_killed_worker(plan, out)

        server = make_server(out, build_plan(), port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status = get_json(port, "/status")
            assert status["mode"] == "steal", status
            assert status["done"] == KILL_AFTER_POINTS, status
            fleet = status["telemetry"]["counters"]
            assert fleet["points_computed"] == KILL_AFTER_POINTS, fleet
            print(f"/status     ok: {status['done']}/{status['points_total']} done, fleet {fleet}")

            progress = get_json(port, "/progress")
            done = [point["label"] for point in progress["points"] if point["state"] == "done"]
            assert len(done) == KILL_AFTER_POINTS, progress
            print(f"/progress   ok: done={done}")

            workers = get_json(port, "/workers")
            assert any(row["worker"] == "victim" for row in workers["workers"]), workers
            print(f"/workers    ok: {len(workers['workers'])} manifest row(s)")

            partial = get_json(port, "/aggregate")
            assert partial["complete"] is False, partial
            assert partial["folded"] == KILL_AFTER_POINTS, partial
            print(f"/aggregate  ok: folded {partial['folded']}, pending {partial['pending']}")

            with urllib.request.urlopen(f"http://127.0.0.1:{port}/", timeout=10) as response:
                page = response.read().decode("utf-8")
            assert "<pre>" in page and "points done" in page, page[:200]
            print("/           ok: HTML page renders the shared status text")

            # A second worker drains the orphaned points; the served
            # aggregate must flip to complete and match the batch merge bit
            # for bit (modulo the JSON projection).
            time.sleep(0.2)  # let the victim's abandoned lease expire
            run_work_stealing(build_plan(), out, worker="finisher", max_workers=1, lease_ttl=0.05)
            final = get_json(port, "/aggregate")
            assert final["complete"] is True, final
            reference = merge_stolen(out, build_plan())
            for label, aggregate in reference.aggregates.items():
                assert final["aggregates"][label] == aggregate_to_json(aggregate), label
            print(f"finish      ok: {final['folded']} folded, bit-identical to merge_stolen")
            print(render_status_text(out))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
