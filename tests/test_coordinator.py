"""Work-stealing coordinator: lease protocol, theft, and bit-identity.

The headline guarantee under test: executing a plan through any number of
work-stealing workers -- killed, restarted, stolen-from, racing -- and
merging the directory yields aggregates *bit-identical* to the single-host
sweep.  Plus the lease protocol's edges: single-winner claims and steals,
expiry by heartbeat silence, corrupt lease files treated as expired, and
clear refusals for mixed or foreign directories.
"""

import json
import time

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments import e1_figure1, e9_adversary
from repro.experiments.common import default_seeds
from repro.harness import coordinator, parallel
from repro.harness.config import ExperimentConfig
from repro.harness.coordinator import (
    LeaseError,
    current_lease,
    lease_dir,
    merge_stolen,
    plan_header_path,
    read_plan_header,
    renew_lease,
    run_work_stealing,
    sanitize_worker_name,
    steal_status,
    try_claim,
    try_steal,
    worker_manifest_path,
    write_plan_header,
)
from repro.harness.distributed import (
    ManifestError,
    ShardSpec,
    checkpoint_path,
    plan_sweep,
    run_plan,
    run_shard,
)

SEEDS = default_seeds(4)
BASE = ExperimentConfig(topology=ClusterTopology.figure1_right())
VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
}
TTL = 0.05  # tiny lease, so tests exercise expiry without real waiting
EXPIRE = 3 * TTL  # sleeping this long guarantees any TTL lease has expired


def point_file(out_dir, point_index):
    """A work-stealing worker's checkpoint of one point: shard 1/1's."""
    return checkpoint_path(out_dir, ShardSpec(1, 1), point_index)


def make_plan():
    """A fresh two-point plan (plans are cheap, and rebuilt like real hosts do)."""
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


# ------------------------------------------------------------------ leases
class TestLeaseProtocol:
    def test_claim_is_single_winner(self, tmp_path):
        plan = make_plan()
        assert try_claim(tmp_path, plan, 0, "alpha", 60.0) is not None
        assert try_claim(tmp_path, plan, 0, "beta", 60.0) is None

    def test_live_lease_cannot_be_stolen(self, tmp_path):
        plan = make_plan()
        lease = try_claim(tmp_path, plan, 0, "alpha", 60.0)
        assert not lease.expired()
        with pytest.raises(LeaseError, match="has not expired"):
            try_steal(tmp_path, plan, 0, "thief", 60.0, lease)

    def test_expired_lease_steal_race_has_one_winner(self, tmp_path):
        plan = make_plan()
        try_claim(tmp_path, plan, 0, "mayfly", TTL)
        time.sleep(EXPIRE)
        expired = current_lease(tmp_path, 0)
        assert expired.expired()
        first = try_steal(tmp_path, plan, 0, "thief-1", 60.0, expired)
        second = try_steal(tmp_path, plan, 0, "thief-2", 60.0, expired)
        winners = [steal for steal in (first, second) if steal is not None]
        assert len(winners) == 1 and winners[0].worker == "thief-1"
        live = current_lease(tmp_path, 0)
        assert live.worker == "thief-1" and live.generation == 1

    def test_renewal_advances_heartbeat(self, tmp_path):
        plan = make_plan()
        lease = try_claim(tmp_path, plan, 0, "alpha", 60.0)
        time.sleep(0.02)
        renewed = renew_lease(lease, plan.fingerprint())
        assert renewed is not None
        assert renewed.renewed_at > lease.renewed_at
        assert renewed.generation == lease.generation

    def test_renewal_after_theft_reports_superseded(self, tmp_path):
        plan = make_plan()
        lease = try_claim(tmp_path, plan, 0, "alpha", TTL)
        time.sleep(EXPIRE)
        assert try_steal(tmp_path, plan, 0, "thief", 60.0, current_lease(tmp_path, 0))
        assert renew_lease(lease, plan.fingerprint()) is None

    def test_corrupt_lease_file_is_expired_with_warning(self, tmp_path):
        plan = make_plan()
        lease_dir(tmp_path).mkdir(parents=True)
        (lease_dir(tmp_path) / "point-0000-gen-0000.json").write_text("{ torn write")
        with pytest.warns(RuntimeWarning, match="corrupt lease"):
            lease = current_lease(tmp_path, 0)
        assert lease.corrupt and lease.expired()
        stolen = try_steal(tmp_path, plan, 0, "thief", 60.0, lease)
        assert stolen is not None and stolen.generation == 1

    def test_nonpositive_ttl_is_refused(self, tmp_path):
        with pytest.raises(LeaseError, match="ttl"):
            try_claim(tmp_path, make_plan(), 0, "alpha", 0.0)

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf")])
    def test_nonfinite_ttl_is_refused(self, tmp_path, ttl):
        with pytest.raises(LeaseError, match="lease ttl must be a finite"):
            try_claim(tmp_path, make_plan(), 0, "alpha", ttl)
        with pytest.raises(LeaseError, match="lease ttl must be a finite"):
            run_work_stealing(make_plan(), tmp_path, worker="w", lease_ttl=ttl, max_workers=1)

    def test_nonfinite_poll_interval_is_refused(self, tmp_path):
        with pytest.raises(LeaseError, match="poll interval must be a finite"):
            run_work_stealing(
                make_plan(), tmp_path, worker="w", wait=True, poll_interval=float("nan"),
                max_workers=1,
            )

    @pytest.mark.parametrize("content", ["null", "3", "[1]", '"lease"'])
    def test_non_object_lease_file_is_expired_with_warning(self, tmp_path, content):
        plan = make_plan()
        write_plan_header(tmp_path, plan)
        lease_dir(tmp_path).mkdir()
        (lease_dir(tmp_path) / "point-0000-gen-0000.json").write_text(content)
        with pytest.warns(RuntimeWarning, match="corrupt lease file point-0000-gen-0000.json"):
            lease = current_lease(tmp_path, 0)
        assert lease.corrupt and lease.expired()
        assert steal_status(tmp_path).orphaned == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ttl", float("nan")),
            ("ttl", float("inf")),
            ("ttl", 0.0),
            ("ttl", -1.0),
            ("renewed_at", float("nan")),
            ("renewed_at", float("inf")),
            ("acquired_at", float("nan")),
        ],
    )
    def test_lease_with_times_no_clock_passes_is_expired(self, tmp_path, field, value):
        """Left live, a NaN or infinite time would pin its point forever."""
        plan = make_plan()
        lease = try_claim(tmp_path, plan, 0, "alpha", 60.0)
        raw = json.loads(lease.path.read_text())
        raw[field] = value
        lease.path.write_text(json.dumps(raw))
        with pytest.warns(RuntimeWarning, match="corrupt lease"):
            read = current_lease(tmp_path, 0)
        assert read.corrupt and read.expired()
        assert try_steal(tmp_path, plan, 0, "thief", 60.0, read) is not None

    def test_out_of_range_point_is_refused(self, tmp_path):
        with pytest.raises(LeaseError, match="point index"):
            try_claim(tmp_path, make_plan(), 99, "alpha", 60.0)

    def test_worker_names_are_sanitized(self):
        assert sanitize_worker_name("host.example.com-42") == "host.example.com-42"
        assert sanitize_worker_name("a b/c") == "a-b-c"
        with pytest.raises(LeaseError, match="unusable"):
            sanitize_worker_name("///")


# ------------------------------------------------------------ bit-identity
def finish_with_workers(plan_builder, out_dir, worker_count, ttl=60.0):
    """Run ``worker_count`` bounded workers, then sweep up any remainder."""
    results = []
    for index in range(1, worker_count + 1):
        results.append(
            run_work_stealing(
                plan_builder(), out_dir, worker=f"w{index}", lease_ttl=ttl,
                max_workers=1, max_points=1,
            )
        )
    while merge_ready(plan_builder(), out_dir) is False:
        results.append(
            run_work_stealing(
                plan_builder(), out_dir, worker=f"sweep{len(results)}",
                lease_ttl=ttl, max_workers=1,
            )
        )
    return results


def merge_ready(plan, out_dir):
    """Whether every point of ``plan`` is checkpointed under ``out_dir``."""
    return all(
        point_file(out_dir, pi).exists() for pi in range(len(plan.points))
    )


@pytest.mark.parametrize("worker_count", [1, 3, 7])
def test_stolen_sweep_merges_bit_identical(tmp_path, worker_count):
    single = run_plan(make_plan(), max_workers=1)
    results = finish_with_workers(make_plan, tmp_path, worker_count)
    assert sum(len(result.computed) for result in results) == len(make_plan().points)
    merged = merge_stolen(tmp_path, make_plan())
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate


@pytest.mark.parametrize("worker_count", [1, 3, 7])
def test_killed_workers_shed_points_to_stealers_bit_identical(
    tmp_path, worker_count, monkeypatch
):
    """Workers die holding leases; stealers recover every point, bit for bit."""
    plan = e1_figure1.plan(seeds=SEEDS)
    single = run_plan(e1_figure1.plan(seeds=SEEDS), max_workers=1)
    for index in range(1, worker_count + 1):
        restore = kill_after(monkeypatch, points=1)
        try:
            # Each victim computes one point, then dies attempting its next
            # claim or steal (a victim that found only one claimable point
            # simply exits; its single point still counts).
            run_work_stealing(
                plan, tmp_path, worker=f"victim{index}", lease_ttl=TTL, max_workers=1
            )
        except KeyboardInterrupt:
            pass
        restore()
        time.sleep(EXPIRE)
    for attempt in range(3):
        if merge_ready(plan, tmp_path):
            break
        run_work_stealing(
            e1_figure1.plan(seeds=SEEDS), tmp_path, worker=f"sweeper{attempt}",
            lease_ttl=TTL, max_workers=1,
        )
        time.sleep(EXPIRE)
    # Finishing required stealing at least one dead victim's lease.
    assert steal_status(tmp_path).stolen >= 1
    merged = merge_stolen(tmp_path, e1_figure1.plan(seeds=SEEDS))
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate


def test_restarted_worker_finds_its_point_stolen(tmp_path, monkeypatch):
    """A crashed worker restarts to find a thief finished its claim: no recompute."""
    plan = make_plan()
    restore = kill_after(monkeypatch, points=0)  # dies inside its first point
    with pytest.raises(KeyboardInterrupt):
        run_work_stealing(plan, tmp_path, worker="original", lease_ttl=TTL, max_workers=1)
    restore()
    claimed = [pi for pi in range(len(plan.points)) if current_lease(tmp_path, pi, warn=False)]
    assert len(claimed) == 1  # died holding exactly one lease, checkpoint-less
    time.sleep(EXPIRE)
    thief = run_work_stealing(
        make_plan(), tmp_path, worker="thief", lease_ttl=TTL, max_workers=1
    )
    assert len(thief.stolen) == 1 and len(thief.executed) == len(plan.points) - 1
    comeback = run_work_stealing(
        make_plan(), tmp_path, worker="original", lease_ttl=TTL, max_workers=1
    )
    assert comeback.runs_executed == 0 and not comeback.computed
    assert sorted(comeback.already_done) == sorted(point.label for point in plan.points)
    stolen_lease = current_lease(tmp_path, claimed[0], warn=False)
    assert stolen_lease.worker == "thief" and stolen_lease.generation == 1


def test_corrupt_lease_blocking_a_point_is_stolen_with_warning(tmp_path):
    plan = make_plan()
    write_plan_header(tmp_path, plan)
    lease_dir(tmp_path).mkdir(exist_ok=True)
    (lease_dir(tmp_path) / "point-0000-gen-0000.json").write_text("not json at all")
    with pytest.warns(RuntimeWarning, match="corrupt lease"):
        result = run_work_stealing(
            make_plan(), tmp_path, worker="sweeper", lease_ttl=TTL, max_workers=1
        )
    assert plan.points[0].label in result.stolen
    assert merge_ready(plan, tmp_path)


def test_corrupt_checkpoint_is_recomputed_after_lease_expiry(tmp_path):
    plan = make_plan()
    run_work_stealing(plan, tmp_path, worker="first", lease_ttl=TTL, max_workers=1)
    point_file(tmp_path, 0).write_bytes(b"{ torn write")
    time.sleep(EXPIRE)
    with pytest.warns(RuntimeWarning, match="recomputing"):
        again = run_work_stealing(
            make_plan(), tmp_path, worker="second", lease_ttl=TTL, max_workers=1
        )
    assert len(again.computed) == 1
    single = run_plan(make_plan(), max_workers=1)
    merged = merge_stolen(tmp_path, make_plan())
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate


def test_unusable_checkpoint_under_a_live_lease_is_left_behind_with_one_warning(tmp_path):
    """A torn checkpoint whose lease is still live is neither done nor silently dropped."""
    plan = make_plan()
    run_work_stealing(plan, tmp_path, worker="first", lease_ttl=3600.0, max_workers=1)
    point_file(tmp_path, 0).write_bytes(b"{ torn write")
    with pytest.warns(RuntimeWarning, match="recomputing") as caught:
        second = run_work_stealing(
            make_plan(), tmp_path, worker="second", lease_ttl=3600.0, max_workers=1
        )
    # Once, although every pass of the claim loop looks at the point again.
    assert sum("recomputing point 'local'" in str(warning.message) for warning in caught) == 1
    assert second.left_behind == [plan.points[0].label]
    assert not second.computed and second.already_done == [plan.points[1].label]
    recorded = json.loads(worker_manifest_path(tmp_path, "second").read_text(encoding="utf-8"))
    assert {index: entry["outcome"] for index, entry in recorded["points"].items()} == {
        "0": "left-behind", "1": "already-done",
    }
    with pytest.raises(ManifestError, match="point-0000-1of1.json"):
        merge_stolen(tmp_path, make_plan())


def test_live_leased_points_are_left_behind_not_fought_over(tmp_path):
    plan = make_plan()
    write_plan_header(tmp_path, plan)
    assert try_claim(tmp_path, plan, 1, "busy-worker", 3600.0) is not None
    result = run_work_stealing(
        make_plan(), tmp_path, worker="polite", lease_ttl=TTL, max_workers=1
    )
    assert result.left_behind == [plan.points[1].label]
    with pytest.raises(ManifestError, match="1 leased"):
        merge_stolen(tmp_path, make_plan())


def test_checkpoints_record_lease_provenance(tmp_path):
    plan = make_plan()
    write_plan_header(tmp_path, plan)
    try_claim(tmp_path, plan, 0, "mayfly", TTL)
    time.sleep(EXPIRE)
    run_work_stealing(make_plan(), tmp_path, worker="prov", lease_ttl=TTL, max_workers=1)
    stolen = json.loads(point_file(tmp_path, 0).read_text(encoding="utf-8"))
    assert stolen["shard"] == "1/1" and stolen["worker"] == "prov"
    assert stolen["lease_generation"] == 1
    fresh = json.loads(point_file(tmp_path, 1).read_text(encoding="utf-8"))
    assert fresh["worker"] == "prov" and fresh["lease_generation"] == 0
    run_shard(make_plan(), ShardSpec(1, 1), tmp_path, max_workers=1)  # resumes both points
    static = tmp_path / "static"
    run_shard(make_plan(), ShardSpec(1, 2), static, max_workers=1)
    shard = json.loads(checkpoint_path(static, ShardSpec(1, 2), 0).read_text(encoding="utf-8"))
    assert shard["worker"] == "shard-1of2" and shard["lease_generation"] is None


def test_max_points_bounds_the_work_grant(tmp_path):
    result = run_work_stealing(
        make_plan(), tmp_path, worker="bounded", lease_ttl=60.0,
        max_workers=1, max_points=1,
    )
    assert len(result.computed) == 1
    assert len(result.left_behind) == len(make_plan().points) - 1


# ------------------------------------------------------------------ status
def test_steal_status_counts_each_state(tmp_path):
    plan = make_plan()
    write_plan_header(tmp_path, plan)
    status = steal_status(tmp_path)
    assert (status.points_total, status.done, status.unclaimed) == (2, 0, 2)
    try_claim(tmp_path, plan, 0, "mayfly", TTL)
    assert steal_status(tmp_path).leased == 1
    time.sleep(EXPIRE)
    status = steal_status(tmp_path)
    assert status.orphaned == 1 and status.leased == 0
    run_work_stealing(make_plan(), tmp_path, worker="fin", lease_ttl=TTL, max_workers=1)
    status = steal_status(tmp_path)
    assert status.done == 2 and status.stolen == 1 and status.unclaimed == 0
    assert any(row["worker"] == "fin" and row["stolen"] == 1 for row in status.workers)


# -------------------------------------------------------------- refusals
def test_a_writer_of_another_shard_count_is_refused_by_the_header(tmp_path):
    """One refusal for every mix: k differs from plan.json's, named with both counts."""
    steal_out = tmp_path / "steal"
    run_work_stealing(make_plan(), steal_out, worker="w", lease_ttl=60.0, max_workers=1)
    refusal = r"plan\.json splits the plan into 1 shard\(s\) but this writer is a shard of 2"
    with pytest.raises(ManifestError, match=refusal):
        run_shard(make_plan(), ShardSpec(2, 2), steal_out, max_workers=1)
    static_out = tmp_path / "static"
    run_shard(make_plan(), ShardSpec(1, 2), static_out, max_workers=1)
    refusal = r"plan\.json splits the plan into 2 shard\(s\) but this writer is a shard of 1"
    with pytest.raises(ManifestError, match=refusal):
        run_work_stealing(make_plan(), static_out, worker="w", lease_ttl=60.0, max_workers=1)
    with pytest.raises(ManifestError, match="2 shard"):
        run_shard(make_plan(), ShardSpec(1, 3), static_out, max_workers=1)


def test_steal_workers_and_a_whole_shard_share_one_covering(tmp_path):
    """Shard 1/1 and --steal workers write the same files: each resumes the other's points."""
    plan = make_plan()
    run_work_stealing(plan, tmp_path, worker="w", lease_ttl=60.0, max_workers=1, max_points=1)
    whole = run_shard(make_plan(), ShardSpec(1, 1), tmp_path, max_workers=1)
    assert len(whole.already_done) == 1 and len(whole.executed) == len(plan.points) - 1
    again = run_work_stealing(make_plan(), tmp_path, worker="w2", lease_ttl=60.0, max_workers=1)
    assert sorted(again.already_done) == sorted(point.label for point in plan.points)
    merged = merge_stolen(tmp_path, make_plan())
    assert merged.shard_count == 1
    assert merged.aggregates == run_plan(make_plan(), max_workers=1)


def test_foreign_plan_header_is_refused(tmp_path):
    run_work_stealing(make_plan(), tmp_path, worker="w", lease_ttl=60.0, max_workers=1)
    foreign = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    with pytest.raises(ManifestError, match="different plan"):
        run_work_stealing(foreign, tmp_path, worker="w2", lease_ttl=60.0, max_workers=1)
    with pytest.raises(ManifestError, match="different plan"):
        merge_stolen(tmp_path, foreign)


def test_merge_refuses_incomplete_run_with_state_counts(tmp_path):
    run_work_stealing(
        make_plan(), tmp_path, worker="half", lease_ttl=60.0, max_workers=1, max_points=1
    )
    with pytest.raises(ManifestError, match="incomplete.*1 unclaimed"):
        merge_stolen(tmp_path, make_plan())


def test_malformed_plan_header_is_refused(tmp_path):
    run_work_stealing(make_plan(), tmp_path, worker="w", lease_ttl=60.0, max_workers=1)
    plan_header_path(tmp_path).write_text("{ broken")
    with pytest.raises(ManifestError, match="malformed plan header"):
        read_plan_header(tmp_path)


def test_worker_manifest_records_outcomes(tmp_path):
    plan = make_plan()
    run_work_stealing(plan, tmp_path, worker="solo", lease_ttl=60.0, max_workers=1)
    manifest = worker_manifest_path(tmp_path, "solo")
    assert manifest.exists()
    raw = read_plan_header(tmp_path)
    assert raw["fingerprint"] == plan.fingerprint()
    status = steal_status(tmp_path)
    assert status.workers[0]["computed"] == len(plan.points)


# ----------------------------------------------------------- e9 stealing
E9_KWARGS = dict(
    seeds=default_seeds(3), scenarios=("none", "lossy-links"), intensities=(0.25,)
)


def test_e9_steal_merge_is_bit_identical_to_single_host(tmp_path, monkeypatch):
    single = run_plan(e9_adversary.plan(**E9_KWARGS), max_workers=1)
    restore = kill_after(monkeypatch, points=1)
    with pytest.raises(KeyboardInterrupt):
        run_work_stealing(
            e9_adversary.plan(**E9_KWARGS), tmp_path, worker="victim",
            lease_ttl=TTL, max_workers=1,
        )
    restore()
    time.sleep(EXPIRE)
    sweeper = run_work_stealing(
        e9_adversary.plan(**E9_KWARGS), tmp_path, worker="sweeper",
        lease_ttl=TTL, max_workers=1,
    )
    assert sweeper.stolen
    merged = merge_stolen(tmp_path, e9_adversary.plan(**E9_KWARGS))
    assert set(merged.aggregates) == set(single)
    for label, aggregate in single.items():
        assert merged.aggregates[label] == aggregate
    report = e9_adversary.build_report(merged.plan, merged.aggregates)
    direct = e9_adversary.build_report(
        e9_adversary.plan(**E9_KWARGS), single
    )
    assert report.format(precision=12) == direct.format(precision=12)


def test_superseded_worker_loses_gracefully(tmp_path):
    """A worker whose lease was stolen mid-run, thief finishing first, records a loss."""
    plan = make_plan()
    write_plan_header(tmp_path, plan)  # as ``run`` does before it claims
    scheduler = coordinator.SweepWriter(
        plan, tmp_path, worker="slow", lease_ttl=60.0
    )
    claims = scheduler.claims()
    task = next(claims)
    # The thief takes over and completes the point while "slow" stalls.
    task.superseded = True
    summaries = coordinator.execute_point(plan, task, max_workers=1)
    coordinator._write_checkpoint(
        task.checkpoint, plan, coordinator._WHOLE, task.point_index, summaries,
        provenance={"worker": "thief", "lease_generation": 1},
    )
    scheduler.complete(task, summaries)
    assert scheduler.result.lost == [task.label]
    assert task.label not in scheduler.result.executed


def test_a_writer_claiming_before_the_header_exists_still_sees_the_thief_finish(tmp_path):
    """The directory read before ``plan.json`` existed is not the one a thief's file is judged by."""
    plan = make_plan()
    scheduler = coordinator.SweepWriter(plan, tmp_path, worker="slow", lease_ttl=60.0)
    task = next(scheduler.claims())  # no plan header yet
    write_plan_header(tmp_path, plan)
    task.superseded = True
    summaries = coordinator.execute_point(plan, task, max_workers=1)
    coordinator._write_checkpoint(
        task.checkpoint, plan, coordinator._WHOLE, task.point_index, summaries,
        provenance={"worker": "thief", "lease_generation": 1},
    )
    thief = task.checkpoint.read_bytes()
    scheduler.complete(task, summaries)
    assert scheduler.result.lost == [task.label] and scheduler.result.executed == []
    assert task.checkpoint.read_bytes() == thief


def test_superseded_worker_replaces_a_torn_thief_checkpoint(tmp_path):
    """A thief's checkpoint the judge refuses is no finish: the superseded writer writes its own."""
    plan = make_plan()
    write_plan_header(tmp_path, plan)
    scheduler = coordinator.SweepWriter(plan, tmp_path, worker="slow", lease_ttl=60.0)
    task = next(scheduler.claims())
    task.superseded = True
    summaries = coordinator.execute_point(plan, task, max_workers=1)
    task.checkpoint.write_text("{ torn write")  # the thief died mid-publish
    scheduler.complete(task, summaries)
    assert scheduler.result.executed == [task.label] and scheduler.result.lost == []
    assert coordinator.RunDirectory(tmp_path).verdict(task.point_index).state == "done"
    scheduler.run(max_workers=1)
    assert merge_stolen(tmp_path, make_plan()).aggregates == run_plan(make_plan(), max_workers=1)
