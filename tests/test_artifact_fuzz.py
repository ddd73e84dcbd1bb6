"""Fuzz the readers of a run directory: damaged files are refused, never crash a reader.

Every file a sweep leaves in its ``--out`` directory is read by one of four
readers: :func:`~repro.harness.coordinator.read_plan_header`,
:func:`~repro.harness.distributed.read_artifact` (worker manifests),
:func:`~repro.harness.distributed._load_checkpoint` and
:func:`~repro.harness.coordinator.current_lease`.  Each is fed a valid
artifact cut short at any length, changed in any one byte, replaced by
any JSON value, or (for the JSON artifacts) holding any JSON value in one
of its fields.  The three artifact readers either return or raise
:class:`~repro.harness.distributed.ManifestError` naming the file; the
lease reader returns a lease that is corrupt (expired, with a
``RuntimeWarning`` naming the file) or whose times are all finite.  No
other exception may escape.

The same damage, done to any one file of a whole finished directory --
written by two ``--shard i/2`` writers, or by two ``--steal`` workers --
must leave the merge bit-identical to ``run_plan`` or refuse it naming
that file.  The other readers must agree: a checkpoint the merge refuses
is the one point :class:`~repro.harness.coordinator.RunDirectory`'s status
rows show ``refused`` and the incremental merger keeps pending, both
naming that file, every other row as it was; any other damage leaves the
status rows as they were or refuses them naming that file.
"""

import copy
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.experiments.common import default_seeds
from repro.harness.coordinator import (
    RunDirectory,
    current_lease,
    lease_dir,
    read_plan_header,
    run_work_stealing,
    worker_manifest_path,
)
from repro.harness.distributed import (
    ManifestError,
    ShardSpec,
    _load_checkpoint,
    checkpoint_path,
    merge_directory,
    plan_repeat,
    plan_sweep,
    read_artifact,
    run_plan,
    run_shard,
)
from repro.harness.runner import ExperimentConfig
from repro.obs.merge import IncrementalMerger

#: Examples per reader: five readers at this count stay well under 5 s.
EXAMPLES = 120
SHARD = ShardSpec(1, 2)
WHOLE = ShardSpec(1, 1)


def _plan():
    return plan_repeat(
        ExperimentConfig(topology=ClusterTopology.figure1_right()), default_seeds(3)
    )


@pytest.fixture(scope="module")
def master(tmp_path_factory):
    """One static-shard and one work-stealing directory, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    run_shard(_plan(), SHARD, root / "static", max_workers=1)
    run_work_stealing(_plan(), root / "steal", worker="w", max_workers=1)
    return root


#: reader name -> (directory, the file it reads, the call that reads it).
READERS = {
    "plan-header": ("static", lambda out: out / "plan.json", read_plan_header),
    "shard-manifest": (
        "static",
        lambda out: worker_manifest_path(out, "shard-1of2"),
        lambda out: read_artifact(worker_manifest_path(out, "shard-1of2"), "worker manifest", ()),
    ),
    "worker-manifest": (
        "steal",
        lambda out: worker_manifest_path(out, "w"),
        lambda out: read_artifact(worker_manifest_path(out, "w"), "worker manifest", ()),
    ),
    "shard-checkpoint": (
        "static",
        lambda out: checkpoint_path(out, SHARD, 0),
        lambda out: _load_checkpoint(checkpoint_path(out, SHARD, 0), read_plan_header(out), SHARD, 0),
    ),
    "point-checkpoint": (
        "steal",
        lambda out: checkpoint_path(out, WHOLE, 0),
        lambda out: _load_checkpoint(checkpoint_path(out, WHOLE, 0), read_plan_header(out), WHOLE, 0),
    ),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _with_one_field_replaced(draw, document):
    """``document`` with one value, at most three containers deep, made any JSON value."""
    document = copy.deepcopy(document)
    node = document
    for depth in range(3):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if depth < 2 and isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(json_values)
        break
    return json.dumps(document).encode("utf-8")


def damaged(valid: bytes):
    """Every kind of damage done to ``valid``: the strategy each reader is fed."""
    kinds = [
        st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)).map(
            lambda change: valid[: change[0]]
            + bytes([(valid[change[0]] + change[1]) % 256])
            + valid[change[0] + 1:]
        ),
        json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    ]
    try:
        document = json.loads(valid)
    except ValueError:
        pass  # not a JSON artifact: no fields to replace
    else:
        kinds.append(_with_one_field_replaced(document))
    return st.one_of(kinds)


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_an_artifact_reader_returns_or_names_the_file(master, tmp_path, reader, data):
    layout, locate, read = READERS[reader]
    out = tmp_path / layout
    if not out.exists():
        shutil.copytree(master / layout, out)
    path = locate(out)
    valid = locate(master / layout).read_bytes()
    path.write_bytes(data.draw(damaged(valid), label="file"))
    try:
        read(out)
    except ManifestError as error:
        assert path.name in str(error)


@given(data=st.data())
@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_a_lease_reader_returns_a_corrupt_or_a_finite_lease(master, tmp_path, data):
    out = tmp_path / "steal"
    if not out.exists():
        shutil.copytree(master / "steal", out)
    (name,) = [path.name for path in lease_dir(master / "steal").iterdir()]
    valid = (lease_dir(master / "steal") / name).read_bytes()
    (lease_dir(out) / name).write_bytes(data.draw(damaged(valid), label="lease"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lease = current_lease(out, 0)
    if lease.corrupt:
        assert lease.expired()
        assert any(
            issubclass(warning.category, RuntimeWarning) and name in str(warning.message)
            for warning in caught
        )
    else:
        assert all(math.isfinite(value) for value in (lease.acquired_at, lease.renewed_at, lease.ttl))
        assert lease.ttl > 0


# ------------------------------------------------- damage to a whole directory
def _sweep():
    variations = {
        "local": {"algorithm": "hybrid-local-coin"},
        "common": {"algorithm": "hybrid-common-coin"},
    }
    base = ExperimentConfig(topology=ClusterTopology.figure1_right())
    return plan_sweep(base, variations, default_seeds(3))


def _status_rows(out):
    directory = RunDirectory(out)
    return directory.point_rows, directory.worker_rows


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Two finished directories of one plan, the truth, and their status rows."""
    root = tmp_path_factory.mktemp("finished")
    for index in (1, 2):
        run_shard(_sweep(), ShardSpec(index, 2), root / "shards", max_workers=1)
    run_work_stealing(_sweep(), root / "steal", worker="a", max_workers=1, max_points=1)
    run_work_stealing(_sweep(), root / "steal", worker="b", max_workers=1)
    rows = {name: _status_rows(root / name) for name in ("shards", "steal")}
    return root, run_plan(_sweep(), max_workers=1), rows


@pytest.mark.parametrize("name", ["shards", "steal"])
@given(data=st.data())
@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_a_damaged_file_merges_bit_identically_or_is_named(finished, name, data):
    root, truth, rows = finished
    master = root / name
    files = sorted(str(path.relative_to(master)) for path in master.rglob("*") if path.is_file())
    relative = data.draw(st.sampled_from(files), label="file")
    damage = data.draw(damaged((master / relative).read_bytes()), label="damage")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / name
        shutil.copytree(master, out)
        path = out / relative
        path.write_bytes(damage)
        try:
            merged = merge_directory(out, _sweep())
        except ManifestError as error:
            assert path.name in str(error)
            refused = re.fullmatch(r"point-\d+-\d+of\d+\.json", relative) is not None
        else:
            assert merged.aggregates == truth
            refused = False
        if refused:
            # One verdict: status shows the point refused and the live merger
            # keeps it pending, both naming the file merge refused.
            points, workers = _status_rows(out)
            (row,) = [row for row in points if row["state"] == "refused"]
            assert row["file"] == path.name and path.name in row["reason"]
            assert [other for other in points if other is not row] == [
                other for other in rows[name][0] if other["index"] != row["index"]
            ]
            assert workers == rows[name][1]
            merger = IncrementalMerger(out, _sweep())
            merger.poll()
            assert merger.pending() == [row["label"]] and path.name in merger.last_error
            return
        try:
            read = _status_rows(out)
        except ManifestError as error:
            assert path.name in str(error)
        else:
            assert read == rows[name]
