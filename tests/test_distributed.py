"""Sharded sweep subsystem: bit-identity, resume, and artifact validation.

The headline guarantee under test: executing a plan as k shards (any k, any
order, any host count) and merging the artifacts yields aggregates
*bit-identical* to the single-host sweep -- every float, every sketch entry.
Plus the failure modes: interrupted shards resume from their checkpoints,
and malformed / mismatched / incomplete artifacts fail with clear errors.
"""

import ast
import json
import math
import re

import pytest

from repro.cluster.topology import ClusterTopology
from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds, run_planned
from repro.harness import parallel
from repro.harness.aggregate import RunAggregate, RunSummary, SummaryReducer, run_priority
from repro.harness.config import ExperimentConfig
from repro.harness.coordinator import plan_header_path, run_work_stealing, worker_manifest_path
from repro.harness.distributed import (
    MANIFEST_VERSION,
    ManifestError,
    PlanPoint,
    ShardError,
    ShardSpec,
    SweepPlan,
    _load_checkpoint,
    _write_checkpoint,
    canonical_sha256,
    checkpoint_path,
    grid_points,
    merge_shards,
    plan_grid,
    plan_provenance,
    plan_repeat,
    plan_sweep,
    run_plan,
    run_shard,
    seal,
    summary_to_json,
    variation_points,
)
from repro.harness.runner import run_consensus
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

    def test_fingerprint_is_pinned(self):
        """The fingerprint moves only with the version (4 -> 5 moved every one)."""
        assert plan_sweep(BASE, VARIATIONS, SEEDS).fingerprint() == (
            "f448ca9f21ab3812dcee10c9748f0279fc65de53734b4207ff1ec011bf78143c"
        )

    def test_a_version_4_directory_is_refused_by_version(self, tmp_path):
        """A version-4 header (it held a ``schedule``, no ``shard_count``) is refused, by file."""
        plan = plan_sweep(BASE, VARIATIONS, SEEDS)
        run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
        path = plan_header_path(tmp_path)
        header = json.loads(path.read_text())
        del header["shard_count"], header["sha256"]
        header.update(version=4, schedule="static")
        path.write_text(json.dumps(header))
        refusal = rf"plan header {re.escape(str(path))} has version 4 but this build reads version 5"
        with pytest.raises(ManifestError, match=refusal):
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
    assert first.runs_executed > 0 and not first.already_done
    again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert not again.executed
    assert again.already_done == first.executed
    assert again.runs_reused == first.runs_executed


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
    assert worker_manifest_path(tmp_path, "shard-1of1").exists()
    resumed = run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    assert len(resumed.already_done) == 1  # the checkpointed point was not recomputed
    assert len(resumed.executed) == len(plan.points) - 1

    merged = merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def test_corrupt_checkpoint_is_recomputed_with_warning(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    checkpoint_path(tmp_path, shard, 0).write_bytes(b"{ torn write")
    with pytest.warns(RuntimeWarning, match="recomputing"):
        again = run_shard(plan, shard, tmp_path, max_workers=1)
    assert len(again.executed) == 1 and len(again.already_done) == len(plan.points) - 1
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
    with pytest.raises(ManifestError, match=r"'local' lacks shard 2/3; 'common' lacks shard 2/3 "):
        merge_shards(tmp_path, plan)


def test_merge_rejects_malformed_header(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    plan_header_path(tmp_path).write_text("{ this is not json")
    with pytest.raises(ManifestError, match="malformed plan header"):
        merge_shards(tmp_path, plan)


def test_merge_rejects_version_mismatch(tmp_path):
    plan = plan_repeat(BASE, SEEDS)
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    payload = json.loads(plan_header_path(tmp_path).read_text())
    payload["version"] = MANIFEST_VERSION + 1
    plan_header_path(tmp_path).write_text(json.dumps(payload))
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
    path = worker_manifest_path(tmp_path, "shard-1of2")
    manifest = json.loads(path.read_text())
    del manifest["points"]["0"], manifest["sha256"]
    path.write_text(json.dumps(seal(manifest)))
    merged = merge_shards(tmp_path, plan_sweep(BASE, VARIATIONS, SEEDS))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def test_merge_rejects_checkpoint_from_other_plan(tmp_path):
    plan = plan_sweep(BASE, VARIATIONS, SEEDS)
    shard = ShardSpec(1, 1)
    run_shard(plan, shard, tmp_path, max_workers=1)
    cpath = checkpoint_path(tmp_path, shard, 0)
    payload = json.loads(cpath.read_text())
    payload["fingerprint"] = "0" * 64
    cpath.write_text(json.dumps(payload))
    with pytest.raises(ManifestError, match="different plan"):
        merge_shards(tmp_path, plan)


def test_merge_empty_directory_fails_clearly(tmp_path):
    with pytest.raises(ManifestError, match="no plan header"):
        merge_shards(tmp_path, plan_repeat(BASE, SEEDS))


# ------------------------------------------- one reader, one merger, as counts
def test_a_run_directory_has_one_reader_and_one_fold():
    """A count, not prose: a second merger, layout or layout reader cannot come back unnoticed."""
    sources = sorted(SRC.rglob("*.py"))
    assert sum(count_calls(path, "fold_point") for path in sources) == 1
    # RunDirectory.checkpoint: the one judge the merger, status and the writers' resume ask.
    assert sum(count_calls(path, "_load_checkpoint") for path in sources) == 1
    for consumer in ("cli.py", "obs/merge.py", "obs/serve.py", "obs/status.py"):
        assert count_calls(
            SRC / consumer,
            "read_plan_header", "read_artifact", "find_worker_manifests", "live_leases",
            "checkpoint_path", "worker_manifest_path", "plan_header_path",
        ) == 0, f"{consumer} reads the directory itself instead of asking RunDirectory"
    # One layout: nothing under src/ reads a ``layout`` or tells a static one apart.
    branches = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "layout")
        or (
            isinstance(node, ast.Compare)
            and any(
                isinstance(operand, ast.Constant) and operand.value == "static"
                for operand in (node.left, *node.comparators)
            )
        )
    ]
    assert branches == []


def test_one_writer_claims_for_every_shard_and_worker():
    """A count, not prose: a second scheduler or result type cannot come back unnoticed."""
    sources = sorted(SRC.rglob("*.py"))
    classes = [
        (path.relative_to(SRC).as_posix(), node)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    claimers = [
        (where, node)
        for where, node in classes
        if any(isinstance(item, ast.FunctionDef) and item.name == "claims" for item in node.body)
    ]
    assert [(where, node.name) for where, node in claimers] == [
        ("harness/coordinator.py", "SweepWriter")
    ]
    (_, writer), = claimers
    for name in ("_write_checkpoint", "write_plan_header"):
        sites = [
            node
            for node in ast.walk(writer)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        ]
        assert len(sites) == 1, name
        assert sum(count_calls(path, name) for path in sources) == 1, name
    for gone in ("StaticShardScheduler", "ShardRunResult", "StealRunResult"):
        assert [path for path in sources if gone in path.read_text(encoding="utf-8")] == [], gone


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
    return sorted(json.loads(path.read_text(encoding="utf-8")))


def test_on_disk_format_is_pinned(tmp_path):
    """File names and key sets as version 5 writes them: both policies, the same file kinds."""
    assert MANIFEST_VERSION == 5
    plan = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    static, steal = tmp_path / "static", tmp_path / "steal"
    for index in (1, 2):
        run_shard(plan, ShardSpec(index, 2), static, max_workers=1)
    run_work_stealing(plan, steal, worker="a", max_workers=1, max_points=1)
    run_work_stealing(plan, steal, worker="b", max_workers=1)

    def names(out):
        return sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file())

    assert names(static) == [
        "plan.json",
        "point-0000-1of2.json", "point-0000-2of2.json",
        "point-0001-1of2.json", "point-0001-2of2.json",
        "worker-shard-1of2.json", "worker-shard-2of2.json",
    ]
    assert names(steal) == [
        "leases/point-0000-gen-0000.json", "leases/point-0001-gen-0000.json", "plan.json",
        "point-0000-1of1.json", "point-0001-1of1.json", "worker-a.json", "worker-b.json",
    ]
    header_keys = [
        "delay_models", "experiment", "fingerprint", "indexing", "labels", "plan_key",
        "runs_total", "scenarios", "seeds", "sha256", "shard_count", "version",
    ]
    manifest_keys = [
        "fingerprint", "points", "points_computed", "points_lost", "points_stolen",
        "runs_executed", "runs_reused", "sha256", "shard", "telemetry", "version", "worker",
    ]
    checkpoint_keys = [
        "fingerprint", "label", "lease_generation", "point_index", "shard", "summaries",
        "summaries_sha256", "version", "worker",
    ]
    for out, worker, checkpoint in (
        (static, "shard-1of2", "point-0000-1of2.json"), (steal, "a", "point-0000-1of1.json"),
    ):
        assert _top_level_keys(out / "plan.json") == header_keys
        assert _top_level_keys(out / f"worker-{worker}.json") == manifest_keys
        assert _top_level_keys(out / checkpoint) == checkpoint_keys
    assert json.loads((static / "plan.json").read_text())["shard_count"] == 2
    assert json.loads((steal / "plan.json").read_text())["shard_count"] == 1
    assert _top_level_keys(steal / "leases" / "point-0000-gen-0000.json") == [
        "acquired_at", "fingerprint", "generation", "point_index", "renewed_at", "ttl",
        "version", "worker",
    ]
    (summary, *_) = json.loads((steal / "point-0000-1of1.json").read_text(encoding="utf-8"))["summaries"]
    assert sorted(summary) == [
        "algorithm", "decided", "decided_value", "index", "priority", "safety_ok", "seed",
        "terminated", "values",
    ]
    assert float.fromhex(summary["priority"]) == run_priority(0, summary["index"])
    assert all(isinstance(value, str) for value in summary["values"].values())


# ------------------------------------------------------------- checkpoints
EDGE_FLOATS = [
    -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("decided_value", [None, 0, 1])
def test_checkpoint_round_trips_every_float_to_the_bit(tmp_path, decided_value):
    plan = plan_repeat(BASE, [2**31 - 1, 2**31 - 2], label="edge")
    summaries = [
        RunSummary(
            seed=seed,
            index=index,
            priority=EDGE_FLOATS[index],
            algorithm="hybrid-local-coin",
            terminated=True,
            safety_ok=index == 0,
            decided=decided_value is not None,
            decided_value=decided_value,
            values={f"metric_{position}": value for position, value in enumerate(EDGE_FLOATS)},
        )
        for index, seed in enumerate(plan.seeds)
    ]
    path = checkpoint_path(tmp_path, ShardSpec(1, 1), 0)
    _write_checkpoint(path, plan, ShardSpec(1, 1), 0, summaries)
    back = _load_checkpoint(path, plan_provenance(plan), ShardSpec(1, 1), 0)
    # Equal encodings: every float has an equal float.hex(), nan and -0.0 included.
    assert [summary_to_json(summary) for summary in back] == [
        summary_to_json(summary) for summary in summaries
    ]
    assert [type(summary.decided_value) for summary in back] == [type(decided_value)] * 2


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("seed", "7", "expected int"),
        ("index", True, "expected int"),
        ("priority", 0.5, "expected str"),
        ("priority", "0xzz", "invalid hexadecimal"),
        ("terminated", 1, "expected bool"),
        ("decided_value", 1.0, "expected int or NoneType"),
        ("values", {"rounds": 2.0}, r"expected a float\.hex\(\) string"),
        ("values", [], "expected dict"),
    ],
)
def test_a_bad_summary_field_is_refused_by_file_position_and_name(tmp_path, field, value, why):
    plan = plan_sweep(BASE, VARIATIONS, default_seeds(2))
    run_shard(plan, ShardSpec(1, 1), tmp_path, max_workers=1)
    path = checkpoint_path(tmp_path, ShardSpec(1, 1), 1)
    raw = json.loads(path.read_text(encoding="utf-8"))

    def rewrite():
        """Keep the digest whole, as a writer that recomputed it would."""
        raw["summaries_sha256"] = canonical_sha256(raw["summaries"])
        path.write_text(json.dumps(raw), encoding="utf-8")

    raw["summaries"][1][field] = value
    rewrite()
    with pytest.raises(ManifestError, match=rf"{re.escape(str(path))}: summary 1 field '{field}': {why}"):
        _load_checkpoint(path, plan_provenance(plan), ShardSpec(1, 1), 1)
    del raw["summaries"][1][field]
    rewrite()
    with pytest.raises(ManifestError, match=rf"{re.escape(str(path))}: summary 1 has no field '{field}'"):
        _load_checkpoint(path, plan_provenance(plan), ShardSpec(1, 1), 1)


@pytest.mark.parametrize("edit", ["one more message", "one hex digit"])
def test_a_changed_summary_is_refused_by_its_digest(tmp_path, edit):
    """A summary edited in place no longer merges silently: merge names the checkpoint.

    Adding 1.0 to one run's ``messages_sent`` used to move the merged mean
    with no error; so did changing one digit inside a hex float.
    """
    plan = e1_figure1.plan(seeds=default_seeds(2))
    for index in (1, 2):
        run_shard(plan, ShardSpec(index, 2), tmp_path, max_workers=1)
    path = checkpoint_path(tmp_path, ShardSpec(1, 2), 0)
    raw = json.loads(path.read_text(encoding="utf-8"))
    values = raw["summaries"][0]["values"]
    if edit == "one more message":
        values["messages_sent"] = (float.fromhex(values["messages_sent"]) + 1.0).hex()
    else:
        text = values["messages_sent"]
        digit = text.index("p") - 1
        values["messages_sent"] = text[:digit] + ("1" if text[digit] != "1" else "2") + text[digit + 1:]
    path.write_text(json.dumps(raw), encoding="utf-8")
    refusal = rf"damaged checkpoint {re.escape(str(path))}: its summaries do not match"
    with pytest.raises(ManifestError, match=refusal):
        merge_shards(tmp_path, e1_figure1.plan(seeds=default_seeds(2)))
    with pytest.warns(RuntimeWarning, match="recomputing"):
        again = run_shard(plan, ShardSpec(1, 2), tmp_path, max_workers=1)
    assert again.executed == [plan.points[0].label]
    merged = merge_shards(tmp_path, e1_figure1.plan(seeds=default_seeds(2)))
    assert merged.aggregates == run_plan(plan, max_workers=1)


def _calls_in(tree):
    """``(enclosing function, dotted callee)`` for every ``module.name(...)`` call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                owner = child.func.value
                if isinstance(owner, ast.Name):
                    found.append((function, f"{owner.id}.{child.func.attr}"))
            visit(child, function)

    visit(tree, None)
    return found


def test_nothing_unpickles_and_one_function_publishes_files():
    """A gate, not prose: no reader runs code from a file, and one writer renames or links.

    A ``pickle.load`` would let any host that can write the shared directory
    run code in every merger; a second ``os.replace`` or ``os.link`` would be
    a second temp-name rule to keep in step.
    """
    unpickling = {"pickle.load", "pickle.loads", "pickle.Unpickler"}
    publishing = {"os.link", "os.replace"}
    offenders = []
    writer = ("harness/distributed.py", "_atomic_write_bytes")
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = str(path.relative_to(SRC))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("os", "pickle"):
                named = {f"{node.module}.{alias.name}" for alias in node.names}
                offenders += [(where, name) for name in sorted(named & (unpickling | publishing))]
        for function, callee in _calls_in(tree):
            if callee in unpickling:
                offenders.append((where, callee))
            elif callee in publishing and (where, function) != writer:
                offenders.append((where, f"{callee} in {function}"))
    assert offenders == []
