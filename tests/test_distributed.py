"""Sharded sweep subsystem: bit-identity, resume, and artifact validation.

The headline guarantee under test: executing a plan as k shards (any k, any
order, any host count) and merging the artifacts yields aggregates
*bit-identical* to the single-host sweep -- every float, every sketch entry.
Plus the failure modes: interrupted shards resume from their checkpoints,
and malformed / mismatched / incomplete artifacts fail with clear errors.
"""

import ast
import json
import pickle

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds, run_planned
from repro.harness import parallel
from repro.harness.aggregate import RunAggregate, SummaryReducer, run_priority
from repro.harness.coordinator import run_work_stealing
from repro.harness.distributed import (
    MANIFEST_VERSION,
    ManifestError,
    PlanPoint,
    ShardError,
    ShardSpec,
    SweepPlan,
    checkpoint_path,
    grid_points,
    manifest_path,
    merge_shards,
    plan_grid,
    plan_repeat,
    plan_sweep,
    run_plan,
    run_shard,
    variation_points,
)
from repro.harness.runner import ExperimentConfig, run_consensus
from repro.network.delays import ConstantDelay
from tests.helpers import SRC, count_calls

SEEDS = default_seeds(5)
BASE = ExperimentConfig(topology=ClusterTopology.figure1_right())
VARIATIONS = {
    "local": {"algorithm": "hybrid-local-coin"},
    "common": {"algorithm": "hybrid-common-coin"},
}


def shard_and_merge(plan, out_dir, shard_count, max_workers=1):
    """Run every shard of ``plan`` into ``out_dir`` and merge them."""
    for index in range(1, shard_count + 1):
        run_shard(plan, ShardSpec(index, shard_count), out_dir, max_workers=max_workers)
    return merge_shards(out_dir, plan)


# ------------------------------------------------------------------ specs
class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/4") == ShardSpec(2, 4)
        assert ShardSpec.parse(" 1 / 1 ") == ShardSpec(1, 1)

    @pytest.mark.parametrize("text", ["", "2", "0/4", "5/4", "a/b", "2/0", "-1/4", "1/4/2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ShardError):
            ShardSpec.parse(text)

    def test_round_robin_partition(self):
        spec_owns = [
            [position for position in range(17) if ShardSpec(index, 3).owns(position)]
            for index in (1, 2, 3)
        ]
        flat = sorted(position for owned in spec_owns for position in owned)
        assert flat == list(range(17))


class TestPlanValidation:
    def test_duplicate_labels_rejected(self):
        point = PlanPoint(label="p", config=BASE)
        with pytest.raises(ShardError, match="unique"):
            SweepPlan(key="k", seeds=[1], points=[point, point])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ShardError, match="seed"):
            SweepPlan(key="k", seeds=[], points=[PlanPoint(label="p", config=BASE)])

    def test_unknown_indexing_rejected(self):
        with pytest.raises(ShardError, match="indexing"):
            SweepPlan(
                key="k", seeds=[1], points=[PlanPoint(label="p", config=BASE)], indexing="zig"
            )

    def test_fingerprint_pins_configuration(self):
        plan_a = plan_sweep(BASE, VARIATIONS, SEEDS)
        plan_b = plan_sweep(BASE, VARIATIONS, SEEDS)
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert plan_a.fingerprint() != plan_sweep(BASE, VARIATIONS, SEEDS[:-1]).fingerprint()
        other_base = ExperimentConfig(topology=ClusterTopology.figure1_left())
        assert plan_a.fingerprint() != plan_sweep(other_base, VARIATIONS, SEEDS).fingerprint()

    def test_fingerprint_pins_priority_backend(self):
        """The fingerprint is what every earlier build on a numpy host printed.

        Run priorities are numpy's ``SeedSequence`` words computed in pure
        Python, so the derivation's name -- part of the fingerprint -- and
        with it every committed directory's fingerprint stay valid.
        """
        assert plan_sweep(BASE, VARIATIONS, SEEDS).fingerprint() == (
            "c7248d665b36bdb7a6cf36b3cc313400cafb29da9e378a6b3f194baece71927d"
        )

    def test_merge_names_the_backend_on_cross_backend_merge(self, tmp_path):
        """A directory whose priorities were derived another way is refused by name."""
        plan = plan_sweep(BASE, VARIATIONS, SEEDS)
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
        path = manifest_path(tmp_path, ShardSpec(1, 1))
        manifest = json.loads(path.read_text())
        assert manifest["priority_backend"] == "numpy-seedsequence"
        manifest["priority_backend"] = "sha256"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="'priority_backend' 'sha256'"):
            merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))


class TestPlanPoints:
    def test_variation_points_keep_order_and_copy_overrides(self):
        variations = {label: dict(overrides) for label, overrides in VARIATIONS.items()}
        points = variation_points(BASE, variations)
        variations["local"]["algorithm"] = "ben-or"
        assert [label for label, _, _ in points] == ["local", "common"]
        assert [overrides for _, overrides, _ in points] == list(VARIATIONS.values())
        assert [config.algorithm for _, _, config in points] == [
            "hybrid-local-coin", "hybrid-common-coin",
        ]
        assert all(config.topology == BASE.topology for _, _, config in points)

    def test_grid_points_are_the_product_with_the_last_axis_fastest(self):
        axes = {"algorithm": ["ben-or", "hybrid-local-coin"], "proposals": ["split", "unanimous-0"]}
        points = grid_points(BASE, axes)
        assert [label for label, _, _ in points] == [
            "algorithm=ben-or, proposals=split",
            "algorithm=ben-or, proposals=unanimous-0",
            "algorithm=hybrid-local-coin, proposals=split",
            "algorithm=hybrid-local-coin, proposals=unanimous-0",
        ]
        for _, overrides, config in points:
            assert (config.algorithm, config.proposals) == (
                overrides["algorithm"], overrides["proposals"],
            )

    def test_grid_label_format_replaces_the_default(self):
        axes = {"algorithm": ["ben-or", "hybrid-local-coin"]}
        labels = [label for label, _, _ in grid_points(BASE, axes, lambda o: o["algorithm"][:3])]
        assert labels == ["ben", "hyb"]
        plan = plan_grid(BASE, axes, SEEDS, label_format=lambda o: o["algorithm"][:3])
        assert [point.label for point in plan.points] == labels

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            pytest.param("topology", ClusterTopology.even_split(4, 2),
                         "n=4, m=2: {0,1} | {2,3}", id="describe"),
            pytest.param("delay_model", ConstantDelay(2.0), "ConstantDelay(value=2.0)",
                         id="describe-default-repr"),
            pytest.param("proposals", "split", "split", id="str"),
            pytest.param("proposals", (0, 1, 1, 0), "(0, 1, 1, 0)", id="tuple"),
            pytest.param("mm_domain", None, "None", id="none"),
        ],
    )
    def test_grid_label_shows_each_value(self, field, value, shown):
        ((label, overrides, config),) = grid_points(BASE, {field: [value]})
        assert label == f"{field}={shown}"
        assert overrides == {field: value}
        assert getattr(config, field) == value

    def test_plan_points_carry_overrides_and_check(self):
        swept = plan_sweep(BASE, VARIATIONS, SEEDS, check=False)
        assert [point.meta for point in swept.points] == list(VARIATIONS.values())
        assert not any(point.check for point in swept.points)
        gridded = plan_grid(BASE, {"algorithm": ["ben-or"]}, SEEDS)
        assert [point.meta for point in gridded.points] == [{"algorithm": "ben-or"}]
        assert all(point.check for point in gridded.points)
        assert swept.indexing == gridded.indexing == "global"
        assert plan_repeat(BASE, SEEDS).indexing == "per-point"


def test_strided_reducer_restores_original_indices():
    result = run_consensus(BASE.with_seed(7))
    summary = SummaryReducer(start=5, step=3)(result, 2)
    assert summary.index == 11
    assert summary.priority == run_priority(0, 11)


# ------------------------------------------------------------ bit-identity
@pytest.mark.parametrize("shard_count", [1, 2, 3, 7, 16])
def test_sharded_sweep_merges_bit_identical(tmp_path, shard_count):
    single = run_plan(plan_sweep(BASE, VARIATIONS, SEEDS), max_workers=1)
    merged = shard_and_merge(plan_sweep(BASE, VARIATIONS, SEEDS), tmp_path, shard_count)
    assert list(merged.aggregates) == list(single) == list(VARIATIONS)
    assert merged.aggregates == single


def test_sharded_grid_merges_bit_identical(tmp_path):
    axes = {"algorithm": ["hybrid-local-coin", "hybrid-common-coin"], "proposals": ["split", "unanimous-1"]}
    single = run_plan(plan_grid(BASE, axes, SEEDS), max_workers=1)
    merged = shard_and_merge(plan_grid(BASE, axes, SEEDS), tmp_path, 3)
    assert merged.aggregates == single


def test_sharded_repeat_merges_bit_identical(tmp_path):
    single = run_plan(plan_repeat(BASE, SEEDS), max_workers=1)
    merged = shard_and_merge(plan_repeat(BASE, SEEDS), tmp_path, 2)
    assert merged.aggregates == single


def test_shard_order_and_grouping_is_irrelevant(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    for index in (3, 1, 2):  # out of order, as independent hosts would finish
        run_shard(plan, ShardSpec(index, 3), tmp_path, max_workers=1)
    merged = merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def _expected_global(configs, seeds):
    """Per-point aggregates of one batch over every (point, seed), runs numbered across it."""
    batch = [config.with_seed(seed) for config in configs for seed in seeds]
    summaries = parallel.run_many(batch, max_workers=1, check=True, reducer=SummaryReducer())
    return [
        RunAggregate.from_summaries(summaries[start:start + len(seeds)])
        for start in range(0, len(summaries), len(seeds))
    ]


def test_run_plan_matches_sweep_and_repeat():
    """``run_plan`` against run indices derived here, not by the plan.

    Global plans (``plan_sweep`` / ``plan_grid``) number runs across one
    batch of every point under every seed; ``plan_repeat`` numbers them per
    point.
    """
    local = run_plan(plan_sweep(BASE, VARIATIONS, SEEDS), max_workers=1)
    configs = [ExperimentConfig(BASE.topology, **overrides) for overrides in VARIATIONS.values()]
    assert list(local.values()) == _expected_global(configs, SEEDS)

    axes = {"algorithm": ["hybrid-local-coin", "ben-or"], "proposals": ["split", "unanimous-1"]}
    gridded = run_plan(plan_grid(BASE, axes, SEEDS), max_workers=1)
    configs = [
        ExperimentConfig(BASE.topology, algorithm=algorithm, proposals=proposals)
        for algorithm in axes["algorithm"]
        for proposals in axes["proposals"]
    ]
    assert list(gridded) == [
        f"algorithm={config.algorithm}, proposals={config.proposals}" for config in configs
    ]
    assert list(gridded.values()) == _expected_global(configs, SEEDS)

    summaries = parallel.run_many(
        [BASE.with_seed(seed) for seed in SEEDS], max_workers=1, check=True,
        reducer=SummaryReducer(),
    )
    assert run_plan(plan_repeat(BASE, SEEDS), max_workers=1) == {
        "repeat": RunAggregate.from_summaries(summaries)
    }


def test_sharded_experiment_reproduces_driver_report(tmp_path):
    seeds = default_seeds(3)
    direct = run_planned(e1_figure1.plan(seeds=seeds), e1_figure1.build_report, max_workers=1)
    merged = shard_and_merge(e1_figure1.plan(seeds=seeds), tmp_path, 2)
    report = e1_figure1.build_report(merged.plan, merged.aggregates)
    assert report.format(precision=12) == direct.format(precision=12)
    assert report.rows == direct.rows
    assert report.passed == direct.passed


# ----------------------------------------------------------------- resume
def test_rerun_resumes_every_checkpointed_point(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    first = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert first.runs_executed > 0 and not first.resumed
    again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert not again.executed
    assert again.resumed == first.executed
    assert again.runs_resumed == first.runs_executed


def test_killed_shard_resumes_from_last_checkpoint(tmp_path, monkeypatch):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    real_run_many = parallel.run_many
    calls = {"count": 0}

    def dies_after_one_point(*args, **kwargs):
        if calls["count"] >= 1:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_many", dies_after_one_point)
    with pytest.raises(KeyboardInterrupt):
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    monkeypatch.setattr(parallel, "run_many", real_run_many)

    # The killed invocation left a manifest and one checkpoint behind.
    assert manifest_path(tmp_path, ShardSpec(1, 1)).exists()
    resumed = run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    assert len(resumed.resumed) == 1  # the checkpointed point was not recomputed
    assert len(resumed.executed) == len(plan.points) - 1

    merged = merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def test_corrupt_checkpoint_is_recomputed_with_warning(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    checkpoint_path(tmp_path, shard, 0).write_bytes(b"not a pickle")
    with pytest.warns(RuntimeWarning, match="recomputing"):
        again = run_shard(plan, shard, tmp_path, max_workers=1)
    assert len(again.executed) == 1 and len(again.resumed) == len(plan.points) - 1
    assert merge_shards(tmp_path, plan).aggregates == run_plan(plan, max_workers=1)


def test_out_dir_of_a_different_plan_is_refused(tmp_path):
    run_shard(plan_sweep(BASE, VARIATIONS, SEEDS), ShardSpec(1, 1), tmp_path, max_workers=1)
    other = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    with pytest.raises(ManifestError, match="different plan"):
        run_shard(other, ShardSpec(1, 1), tmp_path, max_workers=1)


# ------------------------------------------------------------- validation
def test_merge_reports_missing_shards(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    run_shard(plan, ShardSpec(1, 3), tmp_path, max_workers=1)
    run_shard(plan, ShardSpec(3, 3), tmp_path, max_workers=1)
    with pytest.raises(ManifestError, match=r"missing shards \[2\]"):
        merge_shards(tmp_path, plan)


def test_merge_rejects_malformed_manifest(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    manifest_path(tmp_path, ShardSpec(1, 1)).write_text("{ this is not json")
    with pytest.raises(ManifestError, match="malformed manifest"):
        merge_shards(tmp_path, plan)


def test_merge_rejects_version_mismatch(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    payload = json.loads(manifest_path(tmp_path, shard).read_text())
    payload["version"] = MANIFEST_VERSION + 1
    manifest_path(tmp_path, shard).write_text(json.dumps(payload))
    with pytest.raises(ManifestError, match="version"):
        merge_shards(tmp_path, plan)


def test_merge_rejects_foreign_plan(tmp_path):
    ran = plan_sweep(BASE, VARIATIONS, SEEDS)
    run_shard(ran, ShardSpec(1, 1), tmp_path, max_workers=1)
    foreign = plan_sweep(BASE, VARIATIONS, default_seeds(3))
    with pytest.raises(ManifestError, match="different plan"):
        merge_shards(tmp_path, foreign)


def test_merge_rejects_incomplete_shard(tmp_path, monkeypatch):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    real_run_many = parallel.run_many
    calls = {"count": 0}

    def dies_after_one_point(*args, **kwargs):
        if calls["count"] >= 1:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_many", dies_after_one_point)
    with pytest.raises(KeyboardInterrupt):
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    # match on message text that cannot collide with tmp_path (which contains
    # this test's name, and therefore words like "incomplete").
    with pytest.raises(ManifestError, match="resume it by re-running"):
        merge_shards(tmp_path, plan)


def test_checkpoint_that_landed_before_its_manifest_record_merges(tmp_path):
    """Killed between the checkpoint write and the manifest write: nothing is lost.

    Completeness is the file existing and passing ``_load_checkpoint`` -- the
    evidence ``run_shard``'s own resume trusts -- not the manifest's record.
    """
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    for index in (1, 2):
        run_shard(plan, ShardSpec(index, 2), tmp_path, max_workers=1)
    path = manifest_path(tmp_path, ShardSpec(1, 2))
    manifest = json.loads(path.read_text())
    del manifest["points"]["0"]["checkpoint"]
    path.write_text(json.dumps(manifest))
    merged = merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def test_merge_rejects_checkpoint_from_other_plan(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    cpath = checkpoint_path(tmp_path, shard, 0)
    payload = pickle.loads(cpath.read_bytes())
    payload["fingerprint"] = "0" * 64
    cpath.write_bytes(pickle.dumps(payload))
    with pytest.raises(ManifestError, match="different plan"):
        merge_shards(tmp_path, plan)


def test_merge_empty_directory_fails_clearly(tmp_path):
    with pytest.raises(ManifestError, match="no shard manifests"):
        merge_shards(tmp_path, plan_repeat(BASE, SEEDS))


# ------------------------------------------- one reader, one merger, as counts
def test_a_run_directory_has_one_reader_and_one_fold():
    """A count, not prose: a second merger or layout reader cannot come back unnoticed."""
    sources = sorted(SRC.rglob("*.py"))
    assert sum(count_calls(path, "fold_point") for path in sources) == 1
    # The merger, and the two schedulers' resume.
    assert sum(count_calls(path, "_load_checkpoint") for path in sources) == 3
    for consumer in ("cli.py", "obs/merge.py", "obs/serve.py"):
        assert count_calls(
            SRC / consumer,
            "is_steal_dir", "read_manifests", "find_manifests", "read_plan_header",
            "checkpoint_path", "point_checkpoint_path",
        ) == 0, f"{consumer} reads the directory itself instead of asking RunDirectory"


def test_a_point_runs_in_two_places_and_folds_in_two():
    """A count, not prose: a second single-host engine cannot come back unnoticed.

    Runs execute in ``run_plan`` and ``execute_point``; they fold in
    ``run_plan`` and ``fold_point``.
    """
    sources = sorted(SRC.rglob("*.py"))
    assert sum(count_calls(path, "run_many") for path in sources) == 2
    assert sum(count_calls(path, "SummaryReducer") for path in sources) == 2
    assert sum(count_calls(path, "from_summaries") for path in sources) == 2
    distributed, coordinator = SRC / "harness" / "distributed.py", SRC / "harness" / "coordinator.py"
    assert [count_calls(distributed, name) for name in ("run_many", "SummaryReducer")] == [1, 1]
    assert count_calls(distributed, "from_summaries") == 2
    assert [count_calls(coordinator, name) for name in ("run_many", "SummaryReducer")] == [1, 1]
    assert not (SRC / "harness" / "sweep.py").exists()
    assigned = [
        target
        for node in ast.walk(ast.parse((SRC / "harness" / "__init__.py").read_text()))
        if isinstance(node, ast.Assign)
        for target in node.targets
    ]
    assert not any(getattr(target, "attr", None) == "__class__" for target in assigned)


def _top_level_keys(path):
    raw = pickle.loads(path.read_bytes()) if path.suffix == ".pkl" else json.loads(path.read_text())
    return sorted(raw)


def test_on_disk_format_is_pinned(tmp_path):
    """File names and top-level key sets as commit a2fd03d wrote them; the version did not move."""
    assert MANIFEST_VERSION == 3
    plan = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    static, steal = tmp_path / "static", tmp_path / "steal"
    for index in (1, 2):
        run_shard(plan, ShardSpec(index, 2), static, max_workers=1)
    run_work_stealing(plan, steal, worker="a", max_workers=1, max_points=1)
    run_work_stealing(plan, steal, worker="b", max_workers=1)

    def names(out):
        return sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file())

    assert names(static) == [
        "shard-1of2-point-0000.pkl", "shard-1of2-point-0001.pkl", "shard-1of2.json",
        "shard-2of2-point-0000.pkl", "shard-2of2-point-0001.pkl", "shard-2of2.json",
    ]
    assert names(steal) == [
        "leases/point-0000-gen-0000.json", "leases/point-0001-gen-0000.json", "plan.json",
        "point-0000.pkl", "point-0001.pkl", "steal-worker-a.json", "steal-worker-b.json",
    ]
    assert _top_level_keys(static / "shard-1of2.json") == [
        "delay_models", "experiment", "fingerprint", "indexing", "labels", "plan_key", "points",
        "priority_backend", "runs_done", "runs_total", "scenarios", "schedule", "seeds",
        "shard_count", "shard_index", "version",
    ]
    assert _top_level_keys(steal / "plan.json") == [
        "delay_models", "experiment", "fingerprint", "indexing", "labels", "plan_key",
        "priority_backend", "runs_total", "scenarios", "schedule", "seeds", "version",
    ]
    assert _top_level_keys(steal / "steal-worker-a.json") == [
        "experiment", "fingerprint", "indexing", "lease_ttl", "plan_key", "points",
        "points_computed", "points_lost", "points_stolen", "priority_backend", "runs_executed",
        "runs_reused", "schedule", "telemetry", "version", "worker",
    ]
    assert _top_level_keys(steal / "leases" / "point-0000-gen-0000.json") == [
        "acquired_at", "fingerprint", "generation", "point_index", "renewed_at", "ttl",
        "version", "worker",
    ]
    assert _top_level_keys(static / "shard-1of2-point-0000.pkl") == [
        "fingerprint", "label", "point_index", "schedule", "shard", "summaries", "version",
    ]
    assert _top_level_keys(steal / "point-0000.pkl") == [
        "fingerprint", "label", "lease_generation", "point_index", "schedule", "shard", "stolen",
        "summaries", "version", "worker",
    ]
