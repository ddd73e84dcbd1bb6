"""Sharded sweep execution: split one sweep over machines, checkpoint, merge.

:class:`~repro.harness.aggregate.RunAggregate` made cross-host reduction
*possible*; this module makes it *practical*.  A :class:`SweepPlan` is the
deterministic enumeration of every run of a sweep (every point of the sweep
under every seed).  Any host can execute one :class:`ShardSpec` worth of that
plan with :func:`run_shard` -- writing a versioned JSON manifest plus one
pickled checkpoint per completed sweep point, so a killed shard resumes from
its last checkpoint instead of restarting -- and :func:`merge_directory`
(:func:`merge_shards` is the same function) folds the per-shard outputs back
into aggregates *bit-identical* to the single-host execution of the same plan.

How bit-identity is achieved
----------------------------
Shards split the plan round-robin by run index, and every run keeps the
summary index (and therefore the ``SeedSequence(entropy, spawn_key=(index,))``
sketch priority) it would have had in the unsharded execution -- shard
boundaries never change any per-run value.  The checkpoints carry the raw
per-run :class:`~repro.harness.aggregate.RunSummary` objects (~1 KB each),
and the merge re-folds them in run-index order through the exact code path
(:meth:`RunAggregate.from_summaries`) :func:`run_plan` uses, which is what
makes ``shard + merge == run_plan`` an equality, not an approximation (a
pairwise merge of floating-point moments would differ in the last bits).

Index schemes
-------------
``indexing="per-point"`` numbers runs 0..len(seeds)-1 within each point;
:func:`plan_repeat` and the experiment drivers build their plans with it.
``indexing="global"`` numbers runs across the whole batch, point-major;
:func:`plan_sweep` and :func:`plan_grid` use it.

On-disk layout (all under the ``--out`` directory)::

    shard-2of4.json            manifest: version, plan fingerprint, progress
    shard-2of4-point-0003.pkl  checkpoint: RunSummary list for point 3

Every artifact embeds :data:`MANIFEST_VERSION` and the plan's fingerprint;
the merge refuses mixed versions, mixed plans, missing shards and incomplete
shards with errors that say which file is at fault.  This module writes and
names the files; the one place that *reads* a run directory -- this layout or
the work-stealing one -- is :class:`~repro.harness.coordinator.RunDirectory`,
and the one fold over it is :class:`~repro.obs.merge.IncrementalMerger`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .aggregate import (
    SKETCH_CAPACITY,
    RunAggregate,
    RunSummary,
    SummaryReducer,
    priority_backend,
)

# The simulator (``.parallel``, ``.runner``) is imported inside the functions
# that execute runs: reading manifests, checkpoints and leases -- ``python -m
# repro status`` -- must not load it.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import ExperimentConfig

#: Version stamped into every manifest and checkpoint this module writes.
#: Readers reject any other version, so stale artifacts fail loudly instead
#: of merging garbage.  Version 2 added the ``delay_models`` / ``scenarios``
#: provenance fields (and configs grew the fault-injection ``scenario``
#: field, changing every fingerprint), so version-1 artifacts cannot merge
#: with version-2 ones anyway.  Version 3 added the work-stealing scheduler
#: (:mod:`~repro.harness.coordinator`): manifests and checkpoints record
#: schedule/worker/lease provenance, and steal directories gained the
#: ``plan.json`` header and per-point lease files.
MANIFEST_VERSION = 3

#: The two run-numbering schemes a plan can use (see the module docstring).
INDEXING_SCHEMES = ("per-point", "global")

_MANIFEST_RE = re.compile(r"^shard-(\d+)of(\d+)\.json$")

#: What a shard manifest must hold besides its version to be read at all.
MANIFEST_FIELDS = ("fingerprint", "shard_index", "shard_count", "points", "seeds")


class ShardError(ValueError):
    """A shard specification, plan or shard artifact is unusable."""


class ManifestError(ShardError):
    """A manifest or checkpoint is malformed, mismatched or incomplete."""


# ---------------------------------------------------------------- shard spec
@dataclass(frozen=True)
class ShardSpec:
    """One slice ``index/count`` of a plan (1-based, ``1/1`` = everything)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ShardError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/k"`` (e.g. ``"2/4"``) into a spec."""
        match = re.fullmatch(r"\s*(\d+)\s*/\s*(\d+)\s*", text)
        if not match:
            raise ShardError(
                f"shard must look like I/K (e.g. 2/4), got {text!r}"
            )
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    def owns(self, position: int) -> bool:
        """Whether this shard executes the run at batch ``position``."""
        return position % self.count == self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


# --------------------------------------------------------------------- plans
@dataclass(frozen=True)
class PlanPoint:
    """One parameter combination of a plan.

    ``meta`` carries whatever per-point context a report builder wants back
    (row fields, predictions); it never crosses hosts and is not part of the
    plan fingerprint -- it is recomputed wherever the plan is rebuilt.
    """

    label: str
    config: ExperimentConfig
    check: bool = True
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepPlan:
    """The deterministic enumeration of every run of one sweep.

    A plan is pure data: building one runs nothing.  Two hosts that build
    the same plan (same experiment, same seeds, same parameters) agree on
    every run's configuration, summary index and shard assignment, which is
    what lets them execute disjoint shards independently.
    """

    key: str
    seeds: List[int]
    points: List[PlanPoint]
    indexing: str = "per-point"
    experiment: Optional[str] = None
    entropy: int = 0
    capacity: int = SKETCH_CAPACITY
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.indexing not in INDEXING_SCHEMES:
            raise ShardError(
                f"unknown indexing scheme {self.indexing!r}; choose from {INDEXING_SCHEMES}"
            )
        if not self.seeds:
            raise ShardError("a plan needs at least one seed")
        if not self.points:
            raise ShardError("a plan needs at least one point")
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            duplicates = sorted({label for label in labels if labels.count(label) > 1})
            raise ShardError(f"plan point labels must be unique; duplicated: {duplicates}")

    # ---------------------------------------------------------- enumeration
    @property
    def runs_per_point(self) -> int:
        """How many runs (seeds) each point contributes."""
        return len(self.seeds)

    @property
    def total_runs(self) -> int:
        """The total number of runs in the whole plan."""
        return len(self.points) * len(self.seeds)

    def run_index(self, point_index: int, seed_position: int) -> int:
        """The summary/priority index of one run under the plan's scheme."""
        if self.indexing == "global":
            return point_index * len(self.seeds) + seed_position
        return seed_position

    def point_indices(self, point_index: int) -> List[int]:
        """All summary indices of one point, in fold order."""
        return [self.run_index(point_index, si) for si in range(len(self.seeds))]

    def delay_models(self) -> List[str]:
        """Sorted unique delay-model descriptions across the plan's points.

        Recorded in every shard manifest so the merge can refuse
        shards produced under a different delay model with an error that
        names the field (the fingerprint would also catch it, but
        anonymously).
        """
        return sorted({point.config.delay_model.describe() for point in self.points})

    def scenario_names(self) -> List[str]:
        """Sorted unique fault-scenario names across the plan's points.

        Points without a scenario contribute ``"none"``.  Besides powering
        the named-field merge refusal (like :meth:`delay_models`), this is
        what lets ``python -m repro merge`` rebuild a scenario-restricted
        e9 plan from the manifests alone.
        """
        return sorted(
            {
                point.config.scenario.name if point.config.scenario is not None else "none"
                for point in self.points
            }
        )

    def owned_positions(self, point_index: int, shard: ShardSpec) -> List[int]:
        """The seed positions of ``point_index`` that ``shard`` executes.

        Ownership is round-robin over the *batch* position (point-major
        enumeration), so shards stay balanced even when one point dominates,
        and is independent of the indexing scheme.
        """
        base = point_index * len(self.seeds)
        first = (shard.index - 1 - base) % shard.count
        return list(range(first, len(self.seeds), shard.count))

    def fingerprint(self) -> str:
        """A digest pinning everything that affects sharded results.

        Covers the manifest version, the numbering scheme, the seeds, the
        sketch entropy/capacity, every point's label, ``check`` flag and
        full configuration ``repr`` (all the config components have stable,
        value-only reprs), and the :func:`~.aggregate.priority_backend` name
        -- shards written by a build that derived sketch priorities another
        way hold different priorities, so they must not merge.
        Two plans with equal fingerprints produce interchangeable shards;
        everything this module writes or reads is checked against it.
        """
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "key": self.key,
                "experiment": self.experiment,
                "indexing": self.indexing,
                "entropy": self.entropy,
                "capacity": self.capacity,
                "priority_backend": priority_backend(),
                "seeds": list(self.seeds),
                "points": [
                    [point.label, point.check, repr(point.config)] for point in self.points
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_repeat(
    config: ExperimentConfig,
    seeds: Sequence[int],
    label: str = "repeat",
    check: bool = True,
    key: str = "repeat",
) -> SweepPlan:
    """A single-point plan: ``config`` once per seed, runs numbered per point."""
    return SweepPlan(
        key=key,
        seeds=list(seeds),
        points=[PlanPoint(label=label, config=config, check=check)],
        indexing="per-point",
    )


def variation_points(
    base_config: ExperimentConfig,
    variations: Mapping[str, Mapping[str, Any]],
) -> List[Tuple[str, Dict[str, Any], ExperimentConfig]]:
    """Expand named variations into ``(label, overrides, config)`` triples."""
    return [
        (label, dict(overrides), replace(base_config, **overrides))
        for label, overrides in variations.items()
    ]


def grid_points(
    base_config: ExperimentConfig,
    axes: Mapping[str, Sequence[Any]],
    label_format: Optional[Callable[[Dict[str, Any]], str]] = None,
) -> List[Tuple[str, Dict[str, Any], ExperimentConfig]]:
    """Expand a cartesian grid into ``(label, overrides, config)`` triples.

    Labels default to ``field=value`` pairs joined by commas.
    """
    points = []
    names = list(axes)
    for combination in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combination))
        label = (
            label_format(overrides)
            if label_format is not None
            else ", ".join(f"{name}={_short(value)}" for name, value in overrides.items())
        )
        points.append((label, overrides, replace(base_config, **overrides)))
    return points


def _short(value: Any) -> str:
    text = getattr(value, "describe", None)
    if callable(text):
        return text()
    return str(value)


def plan_sweep(
    base_config: ExperimentConfig,
    variations: Mapping[str, Mapping[str, Any]],
    seeds: Sequence[int],
    check: bool = True,
    key: str = "sweep",
) -> SweepPlan:
    """A plan running every named variation of ``base_config`` under every seed.

    ``variations`` maps a label to the :class:`~.runner.ExperimentConfig`
    field overrides that define the point, e.g.
    ``{"hybrid": {"algorithm": "hybrid-local-coin"}, "ben-or": {"algorithm": "ben-or"}}``.
    """
    points = [
        PlanPoint(label=label, config=config, check=check, meta=overrides)
        for label, overrides, config in variation_points(base_config, variations)
    ]
    return SweepPlan(key=key, seeds=list(seeds), points=points, indexing="global")


def plan_grid(
    base_config: ExperimentConfig,
    axes: Mapping[str, Sequence[Any]],
    seeds: Sequence[int],
    label_format: Optional[Callable[[Dict[str, Any]], str]] = None,
    check: bool = True,
    key: str = "grid",
) -> SweepPlan:
    """Cartesian-product plan: every combination of ``axes`` under every seed."""
    points = [
        PlanPoint(label=label, config=config, check=check, meta=overrides)
        for label, overrides, config in grid_points(base_config, axes, label_format=label_format)
    ]
    return SweepPlan(key=key, seeds=list(seeds), points=points, indexing="global")


# ---------------------------------------------------------- local execution
def run_plan(
    plan: SweepPlan,
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> Dict[str, RunAggregate]:
    """Execute the whole plan on this host, one aggregate per point label.

    The single-host reference that sharded and work-stealing execution is
    measured against: each point's runs go through
    :func:`~repro.harness.parallel.run_many` with the summary indices of the
    plan's scheme, and are folded in run-index order.

    ``exec_mode`` selects the per-point engine (process pool vs cooperative
    multi-kernel hosting; see :func:`~repro.harness.parallel.run_many`) and
    never changes any aggregate — only how fast they arrive.  The shared
    worker pool is only built when a point will run on it
    (:func:`~repro.harness.parallel.plan_pool`).
    """
    from .parallel import plan_pool, run_many

    aggregates: Dict[str, RunAggregate] = {}
    with plan_pool(plan, max_workers, exec_mode):
        for point_index, point in enumerate(plan.points):
            configs = [point.config.with_seed(seed) for seed in plan.seeds]
            reducer = SummaryReducer(
                entropy=plan.entropy, start=plan.run_index(point_index, 0), step=1
            )
            summaries = run_many(
                configs,
                max_workers=max_workers,
                check=point.check,
                reducer=reducer,
                exec_mode=exec_mode,
            )
            aggregates[point.label] = RunAggregate.from_summaries(
                summaries, capacity=plan.capacity
            )
    return aggregates


# ------------------------------------------------------------- artifact IO
def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``path`` via a same-directory temp file + rename, never partially.

    The temp name embeds the writer's pid and thread id: concurrent writers
    of the *same* path (two work-stealing workers racing to checkpoint a
    stolen point with bit-identical bytes) then each rename their own whole
    file, so readers see one complete version or the other, never a tear.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def manifest_path(out_dir: Union[str, Path], shard: ShardSpec) -> Path:
    """Where the manifest of ``shard`` lives under ``out_dir``."""
    return Path(out_dir) / f"shard-{shard.index}of{shard.count}.json"


def checkpoint_path(out_dir: Union[str, Path], shard: ShardSpec, point_index: int) -> Path:
    """Where the checkpoint of one completed sweep point lives."""
    return Path(out_dir) / f"shard-{shard.index}of{shard.count}-point-{point_index:04d}.pkl"


def plan_provenance(plan: SweepPlan, schedule: str) -> Dict[str, Any]:
    """The provenance block that opens every JSON artifact of a run directory.

    Written by the plan header and both schedulers' manifests (the worker
    manifest drops the two named-field lists) and read back, field by
    field, by :func:`check_merge_provenance`.
    """
    return {
        "version": MANIFEST_VERSION,
        "schedule": schedule,
        "fingerprint": plan.fingerprint(),
        "plan_key": plan.key,
        "experiment": plan.experiment,
        "indexing": plan.indexing,
        "priority_backend": priority_backend(),
        "delay_models": plan.delay_models(),
        "scenarios": plan.scenario_names(),
    }


def read_artifact(path: Path, noun: str, required: Sequence[str]) -> Dict[str, Any]:
    """Read and structurally validate one JSON artifact (``noun`` names it)."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ManifestError(f"malformed {noun} {path}: {error}") from error
    if not isinstance(raw, dict) or "version" not in raw:
        raise ManifestError(f"malformed {noun} {path}: not a {noun} object")
    if raw["version"] != MANIFEST_VERSION:
        raise ManifestError(
            f"{noun} {path} has version {raw['version']!r} but this build reads "
            f"version {MANIFEST_VERSION}; re-run what wrote it with a matching build"
        )
    missing = [key for key in required if key not in raw]
    if missing:
        raise ManifestError(f"malformed {noun} {path}: missing fields {missing}")
    return raw


def _load_checkpoint(path: Path, plan: SweepPlan, shard: ShardSpec, point_index: int) -> List[RunSummary]:
    """Read one checkpoint and verify it belongs to ``plan``/``shard``/point."""
    try:
        with open(path, "rb") as handle:
            raw = pickle.load(handle)
    except Exception as error:
        # Not a narrower list: torn or foreign bytes make ``pickle.load`` raise
        # Unpickling-, EOF-, Value-, Overflow-, Memory-, Type-, Attribute- or
        # ImportError, and whichever it is, the file is unreadable.
        raise ManifestError(f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(raw, dict):
        raise ManifestError(f"malformed checkpoint {path}: not a checkpoint object")
    if raw.get("version") != MANIFEST_VERSION:
        raise ManifestError(
            f"checkpoint {path} has version {raw.get('version')!r} but this build "
            f"reads version {MANIFEST_VERSION}"
        )
    if raw.get("fingerprint") != plan.fingerprint():
        raise ManifestError(
            f"checkpoint {path} belongs to a different plan "
            f"(fingerprint {raw.get('fingerprint')!r})"
        )
    expected_indices = [
        plan.run_index(point_index, si) for si in plan.owned_positions(point_index, shard)
    ]
    summaries = raw.get("summaries")
    if (
        raw.get("point_index") != point_index
        or raw.get("label") != plan.points[point_index].label
        or not isinstance(summaries, list)
        or [summary.index for summary in summaries] != expected_indices
    ):
        raise ManifestError(
            f"checkpoint {path} does not cover the expected runs of point "
            f"{point_index} ({plan.points[point_index].label!r}) for shard {shard}"
        )
    return summaries


def _write_checkpoint(
    path: Path,
    plan: SweepPlan,
    shard: ShardSpec,
    point_index: int,
    summaries: List[RunSummary],
    provenance: Optional[Mapping[str, Any]] = None,
) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "fingerprint": plan.fingerprint(),
        "shard": str(shard),
        "point_index": point_index,
        "label": plan.points[point_index].label,
        "summaries": summaries,
    }
    if provenance:
        payload.update(provenance)
    _atomic_write_bytes(path, pickle.dumps(payload))


# ------------------------------------------------------------ shard running
@dataclass
class ShardRunResult:
    """What :func:`run_shard` did: which points ran, resumed or were skipped."""

    shard: ShardSpec
    out_dir: Path
    manifest: Path
    executed: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    runs_executed: int = 0
    runs_resumed: int = 0


def run_shard(
    plan: SweepPlan,
    shard: ShardSpec,
    out_dir: Union[str, Path],
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> ShardRunResult:
    """Execute this shard's slice of the plan, checkpointing per sweep point.

    Completed points found on disk (from a previous, possibly killed,
    invocation) are validated and reused instead of recomputed; corrupt or
    foreign checkpoints are recomputed with a warning.  The manifest is
    rewritten atomically after every point, so at any kill point the
    directory holds a resumable prefix of the shard's work.

    Static sharding is the degenerate scheduler of the work-stealing claim
    loop (:mod:`~repro.harness.coordinator`): ownership is fixed up front by
    round-robin run index, every claim trivially succeeds, and nothing is
    ever stolen.  For dynamic scheduling on heterogeneous fleets, see
    :func:`~repro.harness.coordinator.run_work_stealing`.
    """
    from .coordinator import StaticShardScheduler, drive_claims

    scheduler = StaticShardScheduler(plan, shard, Path(out_dir))
    return drive_claims(plan, scheduler, max_workers, exec_mode=exec_mode)


# ----------------------------------------------------------------- merging
@dataclass
class MergedSweep:
    """The single-host-equivalent outcome reassembled from shard artifacts."""

    plan: SweepPlan
    shard_count: int
    aggregates: Dict[str, RunAggregate]
    #: What ``shard_count`` counts: static shards or work-stealing workers.
    unit: str = "shard"


def find_manifests(out_dir: Union[str, Path]) -> List[Path]:
    """All shard manifest files under ``out_dir``, in shard order."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ManifestError(f"{out} is not a directory")
    found = [path for path in out.iterdir() if _MANIFEST_RE.match(path.name)]
    return sorted(found, key=lambda path: int(_MANIFEST_RE.match(path.name).group(1)))


def read_manifests(out_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and validate every shard manifest in ``out_dir`` (at least one)."""
    paths = find_manifests(out_dir)
    if not paths:
        raise ManifestError(f"no shard manifests (shard-IofK.json) found in {Path(out_dir)}")
    manifests = [read_artifact(path, "manifest", MANIFEST_FIELDS) for path in paths]
    first = manifests[0]
    for manifest, path in zip(manifests, paths):
        for key in ("fingerprint", "shard_count", "experiment", "indexing", "delay_models", "scenarios"):
            if manifest.get(key) != first.get(key):
                raise ManifestError(
                    f"{path} disagrees with {paths[0]} on {key!r} "
                    f"({manifest.get(key)!r} != {first.get(key)!r}); "
                    f"these shards come from different runs"
                )
    return manifests


def check_merge_provenance(
    recorded: Mapping[str, Any], plan: SweepPlan, out: Path, what: str = "shards"
) -> None:
    """Refuse merging artifacts whose recorded provenance contradicts ``plan``.

    Reads back what :func:`plan_provenance` wrote.  The named fields come
    first: a delay-model, scenario or priority-derivation mismatch would
    also trip the fingerprint check below, but with an anonymous digest --
    the named-field error says *what* differs.
    """
    expected = plan_provenance(plan, recorded.get("schedule"))
    for field_name in ("delay_models", "scenarios"):
        value = recorded.get(field_name)
        if value is not None and list(value) != expected[field_name]:
            raise ManifestError(
                f"{what} in {out} disagree with the merge plan on {field_name!r}: "
                f"the {what} were produced under {value} but the plan has "
                f"{expected[field_name]}; {what} produced under different delay models or "
                f"fault scenarios cannot be merged"
            )
    recorded_backend = recorded.get("priority_backend")
    if recorded_backend and recorded_backend != expected["priority_backend"]:
        raise ManifestError(
            f"{what} in {out} record 'priority_backend' {recorded_backend!r} but this "
            f"build derives run priorities as {expected['priority_backend']!r}; their sketch "
            f"priorities differ, so re-run the sweep with this build"
        )
    if recorded["fingerprint"] != expected["fingerprint"]:
        raise ManifestError(
            f"{what} in {out} were produced by a different plan (fingerprint "
            f"{recorded['fingerprint'][:12]}... != {expected['fingerprint'][:12]}...); "
            f"rebuild the merge plan with the same experiment, seeds and parameters"
        )


def fold_point(
    plan: SweepPlan, point_index: int, pairs: Iterable[Tuple[int, RunSummary]]
) -> RunAggregate:
    """Fold one point's ``(run_index, summary)`` pairs into its aggregate.

    THE canonical per-point fold: sort by run index, require exactly the
    plan's indices for the point, and feed
    :meth:`~repro.harness.aggregate.RunAggregate.from_summaries` in that
    order.  Its one caller is :class:`~repro.obs.merge.IncrementalMerger`,
    which every merge -- batch or live, either layout -- runs through, so
    their aggregates are bit-identical to :func:`run_plan` and to each
    other by construction.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0])
    indices = [index for index, _ in ordered]
    if indices != plan.point_indices(point_index):
        raise ManifestError(
            f"point {plan.points[point_index].label!r} reassembled with run "
            f"indices {indices}, expected {plan.point_indices(point_index)}"
        )
    return RunAggregate.from_summaries(
        (summary for _, summary in ordered), capacity=plan.capacity
    )


def merge_directory(out_dir: Union[str, Path], plan: SweepPlan) -> MergedSweep:
    """Fold a finished run directory into the single-host aggregates.

    The batch merge of either layout is the incremental one drained once:
    a single :meth:`~repro.obs.merge.IncrementalMerger.poll`, then
    :meth:`~repro.obs.merge.IncrementalMerger.merged`, which raises what
    keeps the directory from merging (provenance from another plan, a
    missing or unfinished shard, unfinished points with their lease
    counts, an unusable checkpoint) or returns aggregates bit-identical
    to :func:`run_plan` of the same plan on one host.
    """
    from ..obs.merge import IncrementalMerger

    merger = IncrementalMerger(out_dir, plan)
    merger.poll()
    return merger.merged()


#: The names static-shard and work-stealing callers know :func:`merge_directory`
#: by (``coordinator.merge_stolen`` is this same binding).
merge_shards = merge_stolen = merge_directory
