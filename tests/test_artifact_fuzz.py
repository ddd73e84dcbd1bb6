"""Fuzz the readers of a run directory: damaged files are refused, never crash a reader.

Every file a sweep leaves in its ``--out`` directory is read by one of four
readers: :func:`~repro.harness.coordinator.read_plan_header`,
:func:`~repro.harness.distributed.read_artifact` (shard and worker
manifests), :func:`~repro.harness.distributed._load_checkpoint` and
:func:`~repro.harness.coordinator.current_lease`.  Each is fed a valid
artifact cut short at any length, changed in any one byte, replaced by
any JSON value, or (for the JSON artifacts) holding any JSON value in one
of its fields.  The three artifact readers either return or raise
:class:`~repro.harness.distributed.ManifestError` naming the file; the
lease reader returns a lease that is corrupt (expired, with a
``RuntimeWarning`` naming the file) or whose times are all finite.  No
other exception may escape.
"""

import copy
import json
import math
import shutil
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.experiments.common import default_seeds
from repro.harness.coordinator import (
    current_lease,
    lease_dir,
    plan_header_path,
    point_checkpoint_path,
    read_plan_header,
    run_work_stealing,
    worker_manifest_path,
)
from repro.harness.distributed import (
    MANIFEST_FIELDS,
    ManifestError,
    ShardSpec,
    _load_checkpoint,
    checkpoint_path,
    manifest_path,
    plan_repeat,
    read_artifact,
    run_shard,
)
from repro.harness.runner import ExperimentConfig

#: Examples per reader: five readers at this count stay well under 5 s.
EXAMPLES = 120
SHARD = ShardSpec(1, 2)


def _plan():
    return plan_repeat(
        ExperimentConfig(topology=ClusterTopology.figure1_right()), default_seeds(3)
    )


@pytest.fixture(scope="module")
def master(tmp_path_factory):
    """One static and one work-stealing directory, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    run_shard(_plan(), SHARD, root / "static", max_workers=1)
    run_work_stealing(_plan(), root / "steal", worker="w", max_workers=1)
    return root


#: reader name -> (layout, the file it reads, the call that reads it).
READERS = {
    "plan-header": ("steal", plan_header_path, read_plan_header),
    "shard-manifest": (
        "static",
        lambda out: manifest_path(out, SHARD),
        lambda out: read_artifact(manifest_path(out, SHARD), "manifest", MANIFEST_FIELDS),
    ),
    "worker-manifest": (
        "steal",
        lambda out: worker_manifest_path(out, "w"),
        lambda out: read_artifact(worker_manifest_path(out, "w"), "worker manifest", ()),
    ),
    "shard-checkpoint": (
        "static",
        lambda out: checkpoint_path(out, SHARD, 0),
        lambda out: _load_checkpoint(checkpoint_path(out, SHARD, 0), _plan(), SHARD, 0),
    ),
    "point-checkpoint": (
        "steal",
        lambda out: point_checkpoint_path(out, 0),
        lambda out: _load_checkpoint(point_checkpoint_path(out, 0), _plan(), ShardSpec(1, 1), 0),
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
