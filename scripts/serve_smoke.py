"""End-to-end smoke of the live sweep service (``make serve-smoke``).

Drives every endpoint over real HTTP, on an ephemeral port, against a
directory from each kind of writer.

First a small work-stealing sweep whose worker is killed halfway through
(the same ``run_many`` seam the coordinator tests use):

- ``/status`` must report the half-finished counts and pooled telemetry,
- ``/progress`` must show exactly the checkpointed points as ``done``,
- ``/workers`` must list the killed worker's manifest row,
- ``/aggregate`` must fold the completed prefix and mark it incomplete,
- ``/`` must render the HTML page around the shared text renderer.

Then a second worker finishes the directory, ``/aggregate`` flips to
complete, and the served aggregates are checked bit-identical to the
batch ``merge_stolen`` fold.  Last, one checkpoint is torn: ``/progress``
must show that point ``refused``, naming the file, ``/status`` must count
one point fewer ``done`` and one ``refused``, and ``merge_stolen`` must
refuse, naming the file -- one verdict everywhere.  (``/aggregate`` is not
asked: a point folded from a file the judge accepted stays folded.)

Second, a directory written by static shard 1/2 alone: ``/status``,
``/progress`` and ``/aggregate`` must report every point pending on shard
2/2's checkpoints; once shard 2/2 runs, ``/aggregate`` must be complete
and bit-identical to ``merge_shards``.  Exits nonzero on any violated
expectation.
"""

import json
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import parallel  # noqa: E402
from repro.harness.coordinator import merge_stolen, run_work_stealing  # noqa: E402
from repro.harness.distributed import (  # noqa: E402
    ManifestError,
    ShardSpec,
    checkpoint_path,
    merge_shards,
    run_shard,
)
from repro.obs.serve import make_server  # noqa: E402
from repro.obs.status import aggregate_to_json, render_status_text  # noqa: E402

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


@contextmanager
def serving(out, plan):
    """A monitoring server over ``out`` on an ephemeral port; yields the port."""
    server = make_server(out, plan, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def smoke_killed_worker(out):
    plan = build_plan()
    run_killed_worker(plan, out)
    with serving(out, build_plan()) as port:
        status = get_json(port, "/status")
        assert status["shard_count"] == 1 and status["workers"] == 1, status
        assert status["points_total"] == len(plan.points), status
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

        done = get_json(port, "/status")["done"]
        torn = checkpoint_path(out, ShardSpec(1, 1), 0)
        torn.write_text("{ torn write")
        progress = get_json(port, "/progress")
        refused = [point for point in progress["points"] if point["state"] == "refused"]
        assert [(point["index"], point["file"]) for point in refused] == [(0, torn.name)], progress
        status = get_json(port, "/status")
        assert status["done"] == done - 1 and status["refused"] == 1, status
        try:
            merge_stolen(out, build_plan())
            raise AssertionError("merge_stolen folded a torn checkpoint")
        except ManifestError as error:
            assert torn.name in str(error), error
        print(f"torn        ok: {torn.name} refused by /progress, /status and merge_stolen")
    print(render_status_text(out))


def smoke_half_of_two_shards(out):
    plan = build_plan()
    labels = [point.label for point in plan.points]
    run_shard(plan, ShardSpec(1, 2), out, max_workers=1)
    with serving(out, build_plan()) as port:
        status = get_json(port, "/status")
        assert status["shard_count"] == 2 and status["workers"] == 1, status
        assert status["done"] == 0 and status["unclaimed"] == len(labels), status
        print(f"/status     ok: {status['done']}/{status['points_total']} done of 2 shards")

        progress = get_json(port, "/progress")
        lacking = [
            point["label"]
            for point in progress["points"]
            if point["state"] == "unclaimed" and point["checkpoints"] == {"1/2": True, "2/2": False}
        ]
        assert lacking == labels, progress
        print(f"/progress   ok: all {len(lacking)} points wait on shard 2/2")

        partial = get_json(port, "/aggregate")
        assert partial["complete"] is False and partial["folded"] == 0, partial
        assert partial["pending"] == labels, partial
        print(f"/aggregate  ok: folded 0, pending {len(partial['pending'])}")

        run_shard(build_plan(), ShardSpec(2, 2), out, max_workers=1)
        final = get_json(port, "/aggregate")
        assert final["complete"] is True, final
        reference = merge_shards(out, build_plan())
        for label, aggregate in reference.aggregates.items():
            assert final["aggregates"][label] == aggregate_to_json(aggregate), label
        print(f"finish      ok: {final['folded']} folded, bit-identical to merge_shards")
    print(render_status_text(out))


def main():
    with TemporaryDirectory(prefix="serve-smoke-") as tmp:
        smoke_killed_worker(Path(tmp) / "steal")
        smoke_half_of_two_shards(Path(tmp) / "shards")
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
