"""Observability layer: telemetry registry, incremental merge, live service.

The headline guarantees under test: (1) the telemetry registry merges
per-worker snapshots exactly (counters sum, gauges keep the latest,
timers fold); (2) :class:`~repro.obs.merge.IncrementalMerger` produces
aggregates *bit-identical* to ``merge_shards`` / ``merge_stolen`` on
every completed prefix, for shard counts 1, 3 and 7; (3) ``serve``
answers live JSON against a half-finished (killed mid-flight) steal
directory, including the incrementally folded partial aggregate; and
(4) ``--wait`` workers idle until live-leased points free up instead of
leaving them behind.
"""

import gc
import json
import shutil
import threading
import time
import urllib.request
from io import StringIO

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments.common import default_seeds
from repro.harness import coordinator, distributed, parallel
from repro.harness.coordinator import (
    merge_stolen,
    plan_header_path,
    point_checkpoint_path,
    run_work_stealing,
    steal_status,
    try_claim,
)
from repro.harness.distributed import (
    ShardSpec,
    checkpoint_path,
    find_manifests,
    manifest_path,
    merge_shards,
    plan_sweep,
    run_shard,
)
from repro.harness.runner import ExperimentConfig
from repro.obs.merge import IncrementalMerger
from repro.obs.serve import (
    SweepMonitor,
    aggregate_to_json,
    make_server,
    render_status_text,
    watch_status,
)
from repro.obs.telemetry import Telemetry, merge_snapshots

SEEDS = default_seeds(3)
BASE = ExperimentConfig(topology=ClusterTopology.figure1_right())
VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
    "local-v2": {"algorithm": "hybrid-local-coin", "tag": "v2"},
    "common-v2": {"algorithm": "hybrid-common-coin", "tag": "v2"},
}


def make_plan():
    """A fresh four-point plan (rebuilt per use, like real hosts do)."""
    return plan_sweep(BASE, VARIATIONS, SEEDS)


def kill_after(monkeypatch, points):
    """Make ``run_many`` die with KeyboardInterrupt after ``points`` calls."""
    real_run_many = parallel.run_many
    calls = {"count": 0}

    def dying(*args, **kwargs):
        if calls["count"] >= points:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_many", dying)
    return lambda: monkeypatch.setattr(parallel, "run_many", real_run_many)


def get_json(port, path):
    """GET one serve endpoint on localhost and decode its JSON body."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture
def server_factory():
    """Start serve servers on ephemeral ports; always shut them down."""
    started = []

    def start(out_dir, plan=None):
        server = make_server(out_dir, plan, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server.server_address[1]

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# -------------------------------------------------------- telemetry registry
class TestTelemetry:
    def test_counters_gauges_and_timers(self):
        telemetry = Telemetry()
        telemetry.inc("points")
        telemetry.inc("points", 2)
        telemetry.set_gauge("last_checkpoint_at", 10.0)
        telemetry.set_gauge("last_checkpoint_at", 20.0)
        with telemetry.timer("point_seconds"):
            pass
        telemetry.observe("point_seconds", 0.5)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {"points": 3}
        assert snapshot["gauges"] == {"last_checkpoint_at": 20.0}
        timer = snapshot["timers"]["point_seconds"]
        assert timer["count"] == 2 and timer["max"] >= 0.5
        assert snapshot["sampled_at"] > 0

    def test_snapshot_is_a_copy(self):
        telemetry = Telemetry()
        telemetry.inc("n")
        snapshot = telemetry.snapshot()
        telemetry.inc("n")
        assert snapshot["counters"] == {"n": 1}

    def test_snapshot_is_json_serializable(self):
        telemetry = Telemetry()
        telemetry.inc("a")
        with telemetry.timer("t"):
            pass
        json.dumps(telemetry.snapshot())

    def test_concurrent_increments_are_not_lost(self):
        telemetry = Telemetry()

        def spin():
            for _ in range(1000):
                telemetry.inc("hits")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.snapshot()["counters"]["hits"] == 4000

    def test_merge_snapshots_pools_the_fleet(self):
        first = {
            "counters": {"points": 2, "runs": 8},
            "gauges": {"last_checkpoint_at": 100.0},
            "timers": {"point_seconds": {"count": 2, "total": 3.0, "max": 2.0}},
            "sampled_at": 50.0,
        }
        second = {
            "counters": {"points": 1},
            "gauges": {"last_checkpoint_at": 200.0},
            "timers": {"point_seconds": {"count": 1, "total": 5.0, "max": 5.0}},
            "sampled_at": 60.0,
        }
        merged = merge_snapshots([first, None, second])
        assert merged["counters"] == {"points": 3, "runs": 8}
        assert merged["gauges"] == {"last_checkpoint_at": 200.0}
        assert merged["timers"]["point_seconds"] == {"count": 3, "total": 8.0, "max": 5.0}
        assert merged["sampled_at"] == 60.0

    def test_time_collector_feeds_every_pass_and_unhooks(self):
        telemetry = Telemetry()
        hooks_before = list(gc.callbacks)
        with telemetry.time_collector():
            assert len(gc.callbacks) == len(hooks_before) + 1
            assert telemetry.snapshot()["timers"]["gc_seconds"]["count"] == 0
            gc.collect()
            gc.collect()
        assert gc.callbacks == hooks_before
        gc.collect()  # after removal: not counted
        timer = telemetry.snapshot()["timers"]["gc_seconds"]
        assert timer["count"] == 2 and 0.0 < timer["max"] <= timer["total"]

    def test_time_collector_unhooks_when_the_block_raises(self):
        hooks_before = list(gc.callbacks)
        with pytest.raises(KeyboardInterrupt):
            with Telemetry().time_collector():
                raise KeyboardInterrupt("simulated kill")
        assert gc.callbacks == hooks_before

    def test_time_collector_survives_a_pass_inside_the_registry_lock(self):
        # A collection can start inside any allocation -- also one made while
        # this thread holds the registry lock; the hook must not want it.
        telemetry = Telemetry()
        with telemetry.time_collector():
            with telemetry._lock:
                gc.collect()
        assert telemetry.snapshot()["timers"]["gc_seconds"]["count"] == 1

    def test_merge_snapshots_pools_collector_time_per_worker(self):
        workers = []
        for _ in range(2):
            telemetry = Telemetry()
            with telemetry.time_collector():
                gc.collect()
            telemetry.observe("point_seconds", 1.0)
            workers.append(telemetry.snapshot())
        merged = merge_snapshots(workers)["timers"]
        assert merged["point_seconds"] == {"count": 2, "total": 2.0, "max": 1.0}
        assert merged["gc_seconds"]["count"] == 2
        assert merged["gc_seconds"]["total"] == sum(
            snap["timers"]["gc_seconds"]["total"] for snap in workers
        )
        assert merged["gc_seconds"]["max"] == max(
            snap["timers"]["gc_seconds"]["max"] for snap in workers
        )

    def test_merge_snapshots_of_nothing_is_empty(self):
        merged = merge_snapshots([None, {}])
        assert merged == {"counters": {}, "gauges": {}, "timers": {}}


# ------------------------------------------------- telemetry rides the files
class TestTelemetryChannel:
    def test_worker_manifest_and_leases_carry_telemetry(self, tmp_path):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        status = steal_status(tmp_path)
        assert len(status.workers) == 1
        telemetry = status.workers[0]["telemetry"]
        assert telemetry["counters"]["points_computed"] == len(plan.points)
        assert telemetry["counters"]["runs_executed"] == plan.total_runs
        assert telemetry["gauges"]["last_checkpoint_at"] <= time.time()
        assert telemetry["timers"]["point_seconds"]["count"] == len(plan.points)

    def test_work_stealing_times_the_collector_for_exactly_its_lifetime(
        self, tmp_path, monkeypatch
    ):
        plan = make_plan()
        hooks_before = list(gc.callbacks)
        hooked = []
        real_execute = coordinator.execute_point

        def collecting_execute(*args, **kwargs):
            hooked.append(len(gc.callbacks) - len(hooks_before))
            gc.collect()  # one pass per point, inside the worker's lifetime
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(coordinator, "execute_point", collecting_execute)
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        assert hooked == [1] * len(plan.points)
        assert gc.callbacks == hooks_before
        timer = steal_status(tmp_path).workers[0]["telemetry"]["timers"]["gc_seconds"]
        assert timer["count"] >= len(plan.points) and timer["total"] > 0.0

        restore = kill_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            run_work_stealing(plan, tmp_path / "killed", worker="victim", max_workers=1)
        restore()
        assert gc.callbacks == hooks_before

    def test_heartbeat_refreshes_lease_telemetry(self, tmp_path):
        plan = make_plan()
        scheduler = coordinator.WorkStealingScheduler(
            plan, tmp_path, worker="beater", lease_ttl=0.05
        )
        scheduler.telemetry.inc("points_computed", 7)
        lease = try_claim(tmp_path, plan, 0, "beater", 0.05)
        task = scheduler._task(0, lease)
        with scheduler.hold(task):
            time.sleep(0.15)  # several heartbeats at ttl/4 cadence
        live = coordinator.current_lease(tmp_path, 0)
        assert live.telemetry is not None
        assert live.telemetry["counters"]["points_computed"] == 7


# ------------------------------------------------------- incremental merging
def _complete_static_run(tmp_path, plan, shard_count):
    """Run every shard of ``plan`` to completion under one directory."""
    out = tmp_path / f"static-{shard_count}"
    for index in range(1, shard_count + 1):
        run_shard(plan, ShardSpec(index, shard_count), out, max_workers=1)
    return out


def _static_prefix_dir(tmp_path, full_dir, plan, shard_count, prefix):
    """A copy of ``full_dir`` holding checkpoints only for points < prefix."""
    out = tmp_path / f"prefix-{shard_count}-{prefix}"
    out.mkdir()
    for manifest in find_manifests(full_dir):
        shutil.copy(manifest, out / manifest.name)
    for point_index in range(prefix):
        for index in range(1, shard_count + 1):
            source = checkpoint_path(full_dir, ShardSpec(index, shard_count), point_index)
            if source.exists():
                shutil.copy(source, out / source.name)
    return out


class TestIncrementalMerger:
    @pytest.mark.parametrize("shard_count", [1, 3, 7])
    def test_every_completed_prefix_is_bit_identical_to_merge_shards(
        self, tmp_path, shard_count
    ):
        plan = make_plan()
        full_dir = _complete_static_run(tmp_path, plan, shard_count)
        reference = merge_shards(full_dir, make_plan())
        for prefix in range(len(plan.points) + 1):
            prefix_dir = _static_prefix_dir(tmp_path, full_dir, plan, shard_count, prefix)
            merger = IncrementalMerger(prefix_dir, make_plan())
            folded = merger.poll()
            assert folded == [point.label for point in plan.points[:prefix]]
            assert merger.complete == (prefix == len(plan.points))
            for label in folded:
                assert merger.aggregates[label] == reference.aggregates[label]

    def test_steal_prefix_is_bit_identical_to_merge_stolen(self, tmp_path):
        plan = make_plan()
        full_dir = tmp_path / "steal"
        run_work_stealing(plan, full_dir, worker="solo", max_workers=1)
        reference = merge_stolen(full_dir, make_plan())
        prefix_dir = tmp_path / "steal-prefix"
        prefix_dir.mkdir()
        shutil.copy(plan_header_path(full_dir), plan_header_path(prefix_dir))
        prefix = 2
        for point_index in range(prefix):
            source = point_checkpoint_path(full_dir, point_index)
            shutil.copy(source, point_checkpoint_path(prefix_dir, point_index))
        merger = IncrementalMerger(prefix_dir, make_plan())
        assert merger.poll() == [point.label for point in plan.points[:prefix]]
        for label in [point.label for point in plan.points[:prefix]]:
            assert merger.aggregates[label] == reference.aggregates[label]
        # The remaining checkpoints land; the next poll folds exactly them.
        for point_index in range(prefix, len(plan.points)):
            source = point_checkpoint_path(full_dir, point_index)
            shutil.copy(source, point_checkpoint_path(prefix_dir, point_index))
        assert merger.poll() == [point.label for point in plan.points[prefix:]]
        assert merger.complete
        assert merger.merged().aggregates == reference.aggregates

    def test_merged_refuses_while_incomplete(self, tmp_path):
        plan = make_plan()
        out = tmp_path / "empty-steal"
        coordinator.write_plan_header(out, plan)
        merger = IncrementalMerger(out, plan)
        assert merger.poll() == []
        with pytest.raises(distributed.ManifestError, match="incomplete"):
            merger.merged()

    def test_foreign_plan_is_refused(self, tmp_path):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        other = plan_sweep(BASE, VARIATIONS, default_seeds(5))
        merger = IncrementalMerger(tmp_path, other)
        with pytest.raises(distributed.ManifestError, match="different plan"):
            merger.poll()

    def test_empty_directory_stays_pending(self, tmp_path):
        merger = IncrementalMerger(tmp_path / "nothing-yet", make_plan())
        assert merger.poll() == []
        assert not merger.complete and merger.mode is None

    def test_merged_counts_the_workers_like_merge_stolen(self, tmp_path):
        run_work_stealing(make_plan(), tmp_path, worker="a", max_workers=1, max_points=2)
        run_work_stealing(make_plan(), tmp_path, worker="b", max_workers=1)
        merger = IncrementalMerger(tmp_path, make_plan())
        merger.poll()
        batch = merge_stolen(tmp_path, make_plan())
        assert merger.merged().shard_count == batch.shard_count == 2
        assert merger.merged() == batch

    def test_poll_refuses_a_manifest_from_another_plan_like_merge_shards(self, tmp_path):
        run_shard(make_plan(), ShardSpec(1, 2), tmp_path, max_workers=1)
        foreign = json.loads(manifest_path(tmp_path, ShardSpec(1, 2)).read_text())
        foreign.update(shard_index=2, fingerprint="0" * 64)
        manifest_path(tmp_path, ShardSpec(2, 2)).write_text(json.dumps(foreign))
        # Both name the file at fault and the field it disagrees on.
        named = r"shard-2of2\.json disagrees.*'fingerprint'"
        with pytest.raises(distributed.ManifestError, match=named):
            IncrementalMerger(tmp_path, make_plan()).poll()
        with pytest.raises(distributed.ManifestError, match=named):
            merge_shards(tmp_path, make_plan())

    def test_shards_that_have_not_started_are_waited_for_not_refused(self, tmp_path):
        plan = make_plan()
        run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
        merger = IncrementalMerger(tmp_path, make_plan())
        assert merger.poll() == [] and merger.mode == "static"  # live: shard 2 is just late
        with pytest.raises(distributed.ManifestError, match=r"missing shards \[2\]"):
            merger.merged()  # batch: the covering is checked here, never in poll()
        run_shard(plan, ShardSpec(2, 2), tmp_path, max_workers=1)
        assert merger.poll() == [point.label for point in plan.points]
        assert merger.merged() == merge_shards(tmp_path, make_plan())

    def test_unusable_checkpoint_stays_pending_and_merged_says_why(self, tmp_path):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        good = point_checkpoint_path(tmp_path, 1).read_bytes()
        point_checkpoint_path(tmp_path, 1).write_bytes(b"torn")
        merger = IncrementalMerger(tmp_path, make_plan())
        assert plan.points[1].label not in merger.poll()
        assert "unreadable checkpoint" in merger.last_error
        with pytest.raises(distributed.ManifestError, match="unreadable checkpoint.*point-0001"):
            merger.merged()
        point_checkpoint_path(tmp_path, 1).write_bytes(good)
        assert merger.poll() == [plan.points[1].label]
        assert merger.last_error is None and merger.merged().aggregates.keys() == {
            point.label for point in plan.points
        }


# ------------------------------------------------------------- live service
class TestServe:
    def test_endpoints_against_half_finished_steal_dir(
        self, tmp_path, monkeypatch, server_factory
    ):
        plan = make_plan()
        restore = kill_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_work_stealing(plan, tmp_path, worker="victim", max_workers=1, lease_ttl=0.05)
        restore()
        done_points = [
            index
            for index in range(len(plan.points))
            if point_checkpoint_path(tmp_path, index).exists()
        ]
        assert len(done_points) == 2  # genuinely half-finished

        port = server_factory(tmp_path, make_plan())
        code, status = get_json(port, "/status")
        assert code == 200
        assert status["mode"] == "steal"
        assert status["done"] == 2 and status["points_total"] == 4
        assert status["telemetry"]["counters"]["points_computed"] == 2
        assert status["telemetry"]["timers"]["gc_seconds"]["count"] >= 0
        assert ", gc " in render_status_text(tmp_path, make_plan()).splitlines()[1]

        code, progress = get_json(port, "/progress")
        assert code == 200
        assert progress["done"] == 2
        states = {point["index"]: point["state"] for point in progress["points"]}
        assert sorted(index for index, state in states.items() if state == "done") == done_points
        assert all(state in {"done", "leased", "orphaned", "unclaimed"} for state in states.values())

        code, workers = get_json(port, "/workers")
        assert code == 200
        assert workers["workers"][0]["worker"] == "victim"

        code, aggregate = get_json(port, "/aggregate")
        assert code == 200
        assert aggregate["complete"] is False and aggregate["folded"] == 2
        # The partial aggregate is bit-identical to the batch merge of the
        # finished run: finish the directory, merge it, compare per label.
        time.sleep(0.2)  # let the victim's abandoned lease expire
        run_work_stealing(make_plan(), tmp_path, worker="finisher", max_workers=1, lease_ttl=0.05)
        reference = merge_stolen(tmp_path, make_plan())
        for index in done_points:
            label = plan.points[index].label
            assert aggregate["aggregates"][label] == aggregate_to_json(
                reference.aggregates[label]
            )

    def test_html_page_and_unknown_endpoint(self, tmp_path, server_factory):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        port = server_factory(tmp_path, make_plan())
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/", timeout=10) as response:
            body = response.read().decode("utf-8")
        assert "<pre>" in body and "points done" in body
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://127.0.0.1:{port}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_aggregate_without_plan_degrades(self, tmp_path, server_factory):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        port = server_factory(tmp_path, plan=None)
        code, payload = get_json(port, "/aggregate")
        assert code == 200 and "error" in payload
        code, status = get_json(port, "/status")
        assert code == 200 and status["done"] == len(plan.points)

    def test_empty_directory_reports_no_artifacts(self, tmp_path, server_factory):
        port = server_factory(tmp_path / "fresh")
        code, status = get_json(port, "/status")
        assert code == 200 and status["mode"] is None

    def test_torn_manifest_is_reported_not_hidden(self, tmp_path, server_factory):
        torn = manifest_path(tmp_path, ShardSpec(1, 1))
        torn.write_text("{ torn")
        port = server_factory(tmp_path)
        for endpoint in ("/status", "/progress", "/workers"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(port, endpoint)
            assert excinfo.value.code == 500
            error = json.loads(excinfo.value.read().decode("utf-8"))["error"]
            assert "malformed manifest" in error and torn.name in error
        with pytest.raises(distributed.ManifestError, match="malformed manifest"):
            render_status_text(tmp_path)

    def test_static_directory_is_served_too(self, tmp_path):
        plan = make_plan()
        out = _complete_static_run(tmp_path, plan, 2)
        monitor = SweepMonitor(out, make_plan())
        status = monitor.status()
        assert status["mode"] == "static" and len(status["shards"]) == 2
        aggregate = monitor.aggregate()
        assert aggregate["complete"] is True and aggregate["folded"] == len(plan.points)


# ------------------------------------------------------------ text renderer
class TestStatusText:
    def test_render_covers_steal_directory(self, tmp_path):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        text = render_status_text(tmp_path)
        assert "4/4 points done" in text
        assert "worker solo" in text
        assert "points_computed=4" in text

    def test_render_covers_empty_directory(self, tmp_path):
        assert "no sweep artifacts" in render_status_text(tmp_path / "nothing")

    def test_watch_redraws_bounded_iterations(self, tmp_path):
        plan = make_plan()
        run_work_stealing(plan, tmp_path, worker="solo", max_workers=1)
        stream = StringIO()
        watch_status(tmp_path, interval=0.01, iterations=2, stream=stream)
        output = stream.getvalue()
        assert output.count("4/4 points done") == 2
        assert "\x1b[2J" in output  # clear-screen redraw, not a scrolling log


# ------------------------------------------------------------- wait polling
class TestWaitPolling:
    def test_wait_worker_steals_when_the_lease_expires(self, tmp_path):
        plan = make_plan()
        # A ghost worker holds point 0 with a short TTL and never heartbeats;
        # its lease is live when the waiting worker starts but soon expires.
        out = tmp_path / "run"
        coordinator.write_plan_header(out, plan)
        assert try_claim(out, plan, 0, "ghost", 1.0) is not None
        result = run_work_stealing(
            plan, out, worker="patient", max_workers=1, wait=True, poll_interval=0.05
        )
        assert result.left_behind == []
        assert plan.points[0].label in result.stolen
        assert len(result.computed) == len(plan.points)
        merged = merge_stolen(out, make_plan())
        assert set(merged.aggregates) == {point.label for point in plan.points}

    def test_without_wait_the_worker_leaves_live_leases_behind(self, tmp_path):
        plan = make_plan()
        coordinator.write_plan_header(tmp_path, plan)
        assert try_claim(tmp_path, plan, 0, "holder", 3600.0) is not None
        result = run_work_stealing(plan, tmp_path, worker="hasty", max_workers=1)
        assert result.left_behind == [plan.points[0].label]

    def test_wait_worker_settles_points_checkpointed_elsewhere(self, tmp_path):
        plan = make_plan()
        coordinator.write_plan_header(tmp_path, plan)
        lease = try_claim(tmp_path, plan, 0, "holder", 3600.0)
        assert lease is not None

        def land_checkpoint():
            # The holder finishes its point while the waiting worker idles.
            time.sleep(0.3)
            scheduler = coordinator.WorkStealingScheduler(
                plan, tmp_path, worker="holder-2", lease_ttl=3600.0
            )
            task = scheduler._task(0, lease)
            summaries = coordinator.execute_point(plan, task, max_workers=1)
            distributed._write_checkpoint(
                task.checkpoint, plan, coordinator._WHOLE, 0, summaries
            )

        landing = threading.Thread(target=land_checkpoint)
        landing.start()
        try:
            result = run_work_stealing(
                plan, tmp_path, worker="patient", max_workers=1, wait=True, poll_interval=0.05
            )
        finally:
            landing.join()
        assert result.left_behind == []
        assert plan.points[0].label in result.already_done
        merge_stolen(tmp_path, make_plan())  # completes cleanly

    def test_poll_interval_requires_wait_mode_in_cli(self, capsys):
        from repro.cli import main

        code = main(["run", "e1", "--steal", "--out", "/tmp/x", "--poll-interval", "1"])
        assert code == 2
        assert "--poll-interval only applies with --wait" in capsys.readouterr().err
