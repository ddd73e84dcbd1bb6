"""Sharded sweep execution: split one sweep over machines, checkpoint, merge.

:class:`~repro.harness.aggregate.RunAggregate` made cross-host reduction
*possible*; this module makes it *practical*.  A :class:`SweepPlan` is the
deterministic enumeration of every run of a sweep (every point of the sweep
under every seed).  Any host can execute one :class:`ShardSpec` worth of that
plan with :func:`run_shard` -- writing one JSON checkpoint per completed
sweep point, so a killed shard resumes from its last checkpoint instead of
restarting -- and :func:`merge_directory`
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

    plan.json                   header: the plan's provenance and its shard count k
    point-0003-2of4.json        checkpoint: shard 2/4's RunSummary list for point 3
    worker-shard-2of4.json      manifest: what that writer did, point by point

Every artifact is JSON that embeds :data:`MANIFEST_VERSION` and the plan's
fingerprint, written by :func:`_atomic_write_bytes`; nothing is unpickled.
A checkpoint carries the digest of its summaries, so a damaged one is
refused, naming the file, instead of merging changed numbers.  This module
names and encodes the checkpoints.  The one *writer* of a run directory --
a static shard and a work-stealing worker alike -- is
:class:`~repro.harness.coordinator.SweepWriter`; the one place that *reads*
one is :class:`~repro.harness.coordinator.RunDirectory`, and the one fold
over it is :class:`~repro.obs.merge.IncrementalMerger`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .aggregate import SKETCH_CAPACITY, RunAggregate, RunSummary, SummaryReducer

# The simulator (``.parallel``, ``.runner``) is imported inside the functions
# that execute runs: reading manifests, checkpoints and leases -- ``python -m
# repro status`` -- must not load it.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import ExperimentConfig
    from .coordinator import WriterResult

#: Version stamped into every artifact of a run directory.  Readers reject any
#: other version, so stale artifacts fail loudly instead of merging garbage;
#: ``docs/distributed.md`` tables what each version changed (5: one layout
#: for static shards and work stealing, and the checkpoint digest).
MANIFEST_VERSION = 5

#: The two run-numbering schemes a plan can use (see the module docstring).
INDEXING_SCHEMES = ("per-point", "global")


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


def owned_positions(seed_count: int, point_index: int, shard: ShardSpec) -> List[int]:
    """The seed positions of ``point_index`` that ``shard`` executes, of ``seed_count``.

    Ownership is round-robin over the *batch* position (point-major
    enumeration), so shards stay balanced even when one point dominates,
    and is independent of the indexing scheme.  It needs the seed count
    alone, so a reader holding only the plan header knows it too.
    """
    first = (shard.index - 1 - point_index * seed_count) % shard.count
    return list(range(first, seed_count, shard.count))


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
        """The seed positions of ``point_index`` that ``shard`` executes (see :func:`owned_positions`)."""
        return owned_positions(len(self.seeds), point_index, shard)

    def fingerprint(self) -> str:
        """A digest pinning everything that affects sharded results.

        Covers the manifest version, the numbering scheme, the seeds, the
        sketch entropy/capacity, and every point's label, ``check`` flag and
        full configuration ``repr`` (all the config components have stable,
        value-only reprs).  Two plans with equal fingerprints produce
        interchangeable shards; everything this module writes or reads is
        checked against it.
        """
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "key": self.key,
                "experiment": self.experiment,
                "indexing": self.indexing,
                "entropy": self.entropy,
                "capacity": self.capacity,
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

    ``variations`` maps a label to the :class:`~.config.ExperimentConfig`
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

    ``max_workers`` counts processes in total, this one included; the
    points share one pool of helpers, built only when a point can use it
    (:func:`~repro.harness.parallel.plan_pool`).  ``exec_mode`` is
    deprecated and has no effect; an unknown name still raises.
    """
    from .parallel import check_exec_mode, plan_pool, run_many

    check_exec_mode(exec_mode)
    aggregates: Dict[str, RunAggregate] = {}
    with plan_pool(plan, max_workers):
        for point_index, point in enumerate(plan.points):
            configs = [point.config.with_seed(seed) for seed in plan.seeds]
            reducer = SummaryReducer(
                entropy=plan.entropy, start=plan.run_index(point_index, 0), step=1
            )
            summaries = run_many(
                configs, max_workers=max_workers, check=point.check, reducer=reducer
            )
            aggregates[point.label] = RunAggregate.from_summaries(
                summaries, capacity=plan.capacity
            )
    return aggregates


# ------------------------------------------------------------- artifact IO
def _atomic_write_bytes(path: Path, payload: bytes, exclusive: bool = False) -> bool:
    """Write ``path`` via a same-directory temp file, never partially.

    The one writer that publishes a file.  The temp name embeds the
    writer's pid and thread id: concurrent writers of the *same* path (two
    work-stealing workers racing to checkpoint a stolen point with
    bit-identical bytes) then each rename their own whole file, so readers
    see one complete version or the other, never a tear.  ``exclusive``
    links instead of renaming, so of any number of racing creators (a lease
    generation, the plan header) exactly one wins; the rest get ``False``.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_bytes(payload)
    try:
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


def checkpoint_path(out_dir: Union[str, Path], shard: ShardSpec, point_index: int) -> Path:
    """Where shard ``shard``'s checkpoint of one completed sweep point lives."""
    return Path(out_dir) / f"point-{point_index:04d}-{shard.index}of{shard.count}.json"


def plan_provenance(plan: SweepPlan) -> Dict[str, Any]:
    """Everything ``plan`` decides in the plan header of a run directory.

    The header is this plus the shard count; every writer and reader
    compares what it holds against it (see
    :class:`~repro.harness.coordinator.RunDirectory`).
    """
    return {
        "version": MANIFEST_VERSION,
        "fingerprint": plan.fingerprint(),
        "plan_key": plan.key,
        "experiment": plan.experiment,
        "indexing": plan.indexing,
        "delay_models": plan.delay_models(),
        "scenarios": plan.scenario_names(),
        "seeds": list(plan.seeds),
        "labels": [point.label for point in plan.points],
        "runs_total": plan.total_runs,
    }


def canonical_sha256(value: Any) -> str:
    """The SHA-256 of ``value``'s canonical JSON (sorted keys, no spaces)."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def seal(document: Dict[str, Any]) -> Dict[str, Any]:
    """``document`` plus a ``sha256`` of itself, which :func:`read_artifact` checks."""
    return {**document, "sha256": canonical_sha256(document)}


def read_artifact(path: Path, noun: str, required: Sequence[str]) -> Dict[str, Any]:
    """Read and structurally validate one JSON artifact (``noun`` names it).

    A :func:`seal`-ed artifact (one holding ``sha256``) must match its digest.
    """
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
    if "sha256" in raw and raw["sha256"] != canonical_sha256(
        {key: value for key, value in raw.items() if key != "sha256"}
    ):
        raise ManifestError(f"damaged {noun} {path}: its content does not match its sha256")
    return raw


def summary_to_json(summary: RunSummary) -> Dict[str, Any]:
    """One :class:`RunSummary` as a checkpoint holds it, floats as ``float.hex()``.

    A shallow copy of the fields; ``float.hex()`` (the golden fixture's
    convention) reads back to the last bit, ``nan`` and ``-0.0`` included.
    """
    return {
        **vars(summary),
        "priority": float(summary.priority).hex(),
        "values": {name: float(value).hex() for name, value in summary.values.items()},
    }


#: The JSON type each checkpointed summary field must hold, exactly (a bool
#: is no int here); ``priority`` and the ``values`` entries are hex strings.
_SUMMARY_TYPES: Dict[str, Tuple[type, ...]] = {
    "seed": (int,), "index": (int,), "priority": (str,), "algorithm": (str,),
    "terminated": (bool,), "safety_ok": (bool,), "decided": (bool,),
    "decided_value": (int, type(None)), "values": (dict,),
}


def _summary_from_json(raw: Any, path: Path, position: int) -> RunSummary:
    """Rebuild one checkpointed summary; a bad field is named, with its file and position."""
    where = f"malformed checkpoint {path}: summary {position}"
    if type(raw) is not dict:
        raise ManifestError(f"{where} is not an object")
    fields = {}
    for name, kinds in _SUMMARY_TYPES.items():
        if name not in raw:
            raise ManifestError(f"{where} has no field {name!r}")
        value = raw[name]
        try:
            if type(value) not in kinds:
                raise TypeError(f"expected {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")
            if name == "priority":
                value = float.fromhex(value)
            elif name == "values":
                texts = value.values()
                if set(map(type, texts)) - {str}:
                    bad = next(text for text in texts if type(text) is not str)
                    raise TypeError(f"expected a float.hex() string, got {bad!r}")
                value = dict(zip(value, map(float.fromhex, texts)))
        except (TypeError, ValueError) as error:
            raise ManifestError(f"{where} field {name!r}: {error}") from None
        fields[name] = value
    return RunSummary(**fields)


def _load_checkpoint(path: Path, header: Mapping, shard: ShardSpec, point_index: int) -> List[RunSummary]:
    """Read one checkpoint and verify it holds ``shard``'s runs of a point of the plan ``header`` records."""
    raw = read_artifact(
        path, "checkpoint", ("fingerprint", "point_index", "label", "summaries", "summaries_sha256")
    )
    if raw["summaries_sha256"] != canonical_sha256(raw["summaries"]):
        raise ManifestError(
            f"damaged checkpoint {path}: its summaries do not match their summaries_sha256"
        )
    if raw["fingerprint"] != header["fingerprint"]:
        raise ManifestError(
            f"checkpoint {path} belongs to a different plan "
            f"(fingerprint {raw['fingerprint']!r})"
        )
    if type(raw["summaries"]) is not list:
        raise ManifestError(f"malformed checkpoint {path}: 'summaries' is not a list")
    summaries = [
        _summary_from_json(entry, path, position)
        for position, entry in enumerate(raw["summaries"])
    ]
    seeds, label = len(header["seeds"]), header["labels"][point_index]
    first = point_index * seeds if header["indexing"] == "global" else 0
    if (
        raw["point_index"] != point_index
        or raw["label"] != label
        or [summary.index for summary in summaries]
        != [first + si for si in owned_positions(seeds, point_index, shard)]
    ):
        raise ManifestError(
            f"checkpoint {path} does not cover the expected runs of point "
            f"{point_index} ({label!r}) for shard {shard}"
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
    encoded = [summary_to_json(summary) for summary in summaries]
    payload = {
        "version": MANIFEST_VERSION,
        "fingerprint": plan.fingerprint(),
        "shard": str(shard),
        "point_index": point_index,
        "label": plan.points[point_index].label,
        **(provenance or {}),
        "summaries": encoded,
        "summaries_sha256": canonical_sha256(encoded),
    }
    _atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))


# ------------------------------------------------------------ shard running
def run_shard(
    plan: SweepPlan,
    shard: ShardSpec,
    out_dir: Union[str, Path],
    max_workers: Optional[int] = None,
) -> WriterResult:
    """Execute this shard's slice of the plan, checkpointing per sweep point.

    Completed points found on disk (from a previous, possibly killed,
    invocation) are validated and reused instead of recomputed; corrupt or
    foreign checkpoints are recomputed with a warning.  The shard's worker
    manifest (``worker-shard-IofK.json``) is rewritten atomically after every
    point, so at any kill point the directory holds a resumable prefix of
    the shard's work.

    A static shard is :class:`~repro.harness.coordinator.SweepWriter`
    without leases: ownership is fixed up front by round-robin run index,
    every claim succeeds, and nothing is ever stolen.  For dynamic
    scheduling on heterogeneous fleets, see
    :func:`~repro.harness.coordinator.run_work_stealing`.
    """
    from .coordinator import SweepWriter

    return SweepWriter(plan, out_dir, shard=shard).run(max_workers)


# ----------------------------------------------------------------- merging
@dataclass
class MergedSweep:
    """The single-host-equivalent outcome reassembled from shard artifacts."""

    plan: SweepPlan
    #: The plan header's shard count k (1 for a work-stealing run).
    shard_count: int
    aggregates: Dict[str, RunAggregate]


def fold_point(
    plan: SweepPlan, point_index: int, pairs: Iterable[Tuple[int, RunSummary]]
) -> RunAggregate:
    """Fold one point's ``(run_index, summary)`` pairs into its aggregate.

    THE canonical per-point fold: sort by run index, require exactly the
    plan's indices for the point, and feed
    :meth:`~repro.harness.aggregate.RunAggregate.from_summaries` in that
    order.  Its one caller is :class:`~repro.obs.merge.IncrementalMerger`,
    which every merge -- batch or live -- runs through, so
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

    The batch merge is the incremental one drained once: a single
    :meth:`~repro.obs.merge.IncrementalMerger.poll`, then
    :meth:`~repro.obs.merge.IncrementalMerger.merged`, which raises what
    keeps the directory from merging (a header from another plan, points
    lacking a shard's checkpoint with their lease counts, an unusable
    checkpoint) or returns aggregates bit-identical to :func:`run_plan` of
    the same plan on one host.
    """
    from ..obs.merge import IncrementalMerger

    merger = IncrementalMerger(out_dir, plan)
    merger.poll()
    return merger.merged()


#: The names static-shard and work-stealing callers know :func:`merge_directory`
#: by (``coordinator.merge_stolen`` is this same binding).
merge_shards = merge_stolen = merge_directory
