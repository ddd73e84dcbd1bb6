"""Scheduling a sweep over a shared run directory, and the one reader of it.

Any number of *writers* fill one run directory with one plan's work, each
as one shard ``i/k`` of the plan's round-robin covering; two policies
decide which points a writer computes:

* a **static shard** (``--shard i/k``, a writer named ``shard-IofK``) owns
  every ``k``-th run of the plan, forever.  On a homogeneous fleet that is
  perfect -- zero coordination -- but one slow or dead host strands its
  share of the sweep until someone re-runs that exact shard.
* a **work-stealing worker** (``--steal``) is shard 1/1: workers *claim*
  whole sweep points through atomic lease files, renew their claims with
  heartbeats while computing, and **steal** points whose leases expire --
  so a slow host sheds its un-started points to faster ones and a killed
  host's work is picked up automatically.

Every run keeps the summary index -- and therefore the
``SeedSequence(entropy, spawn_key=(index,))`` sketch priority -- it would
have had in the unsharded execution, so the merge
(:func:`~.distributed.merge_directory`, which :func:`merge_stolen` names)
re-folds per-point checkpoints in run-index order through the exact code
path the single-host sweep uses, and the merged aggregates are
*bit-identical* to :func:`~.distributed.run_plan` no matter how many
writers ran, died, restarted or stole.

The claim protocol
------------------
Leases live under ``<out>/leases/`` as one JSON file per (point,
generation): ``point-0003-gen-0000.json`` is the initial claim of point
3, ``...-gen-0001.json`` the first steal of it, and so on.  The *live*
lease of a point is its highest generation.  All transitions are
single-winner because creating a generation file is atomic (write a
temp file, ``os.link`` it into place -- the link fails for everyone but
the first):

* **claim** -- create generation 0.  Losing the race means someone else
  owns the point; move on.
* **heartbeat** -- the holder atomically rewrites its own generation
  file every ``ttl/4`` seconds with a fresh ``renewed_at``.  A holder
  that discovers a higher generation knows it was stolen from.
* **steal** -- when ``renewed_at + ttl`` has passed (the TTL recorded
  *in* the lease, so heterogeneous workers honour each other's), create
  generation ``g+1``.  Exactly one of any number of stealers wins.
* **corrupt lease files** (torn writes, disk trouble, times no clock
  passes) are treated as expired, with a warning -- the point becomes
  stealable rather than stuck.

Because every run of a plan is deterministic, the worst possible race
outcome -- two workers computing the same point -- costs duplicated work
but never correctness: both produce bit-identical summaries and the
checkpoint write is atomic.  Correctness never depends on the clock;
clock skew can only make theft early (duplicated work) or late (idle
time).  See ``docs/distributed.md`` for the full failure-mode table.

On-disk layout (all under the shared ``--out`` directory, all JSON)::

    plan.json                         header: provenance, seeds, labels, shard count k
    point-0003-2of4.json              checkpoint: shard 2/4's RunSummary list for point 3
    worker-<name>.json                one per writer: outcomes, counts, telemetry
    leases/point-0003-gen-0001.json   --steal only: one file per claim/steal

The first writer of either kind creates the header; a writer whose k
differs from it is refused.  Both policies feed :func:`drive_claims`, the
single execute-and-checkpoint loop, and write their checkpoints and
manifest the same way (:class:`StaticShardScheduler`,
:class:`WorkStealingScheduler`).

Reading is single, too: :class:`RunDirectory` is the only code that knows
the layout.  It lives here because this module already holds or imports
everything it reads -- leases, plan header, worker manifests, and
:mod:`~repro.harness.distributed`'s checkpoint naming -- so nothing
imports backwards to reach it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from functools import cached_property
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .aggregate import RunSummary, SummaryReducer
from .distributed import (
    MANIFEST_VERSION,
    ManifestError,
    ShardRunResult,
    ShardSpec,
    SweepPlan,
    _atomic_write_bytes,
    _load_checkpoint,
    _write_checkpoint,
    checkpoint_path,
    merge_directory,
    owned_positions,
    plan_provenance,
    read_artifact,
    seal,
)
from ..obs.telemetry import Telemetry

#: How long a lease stays live without a heartbeat before it can be stolen.
#: Generous by default: a steal only pays off when the holder is minutes
#: gone, and a too-short TTL turns slow points into duplicated work.
DEFAULT_LEASE_TTL = 60.0

#: The plan header file every writer of a run directory validates against.
PLAN_HEADER_NAME = "plan.json"

#: Subdirectory of the run directory holding the per-point lease files.
LEASE_DIR_NAME = "leases"

_LEASE_RE = re.compile(r"^point-(\d+)-gen-(\d+)\.json$")
_WORKER_MANIFEST_RE = re.compile(r"^worker-(.+)\.json$")
_WORKER_NAME_RE = re.compile(r"[^A-Za-z0-9._-]+")
#: The writer names of static shards (``shard-IofK``), reserved for them.
_STATIC_SHARD_NAME_RE = re.compile(r"shard-\d+of\d+")

#: What the plan header and a worker manifest hold besides their version.
_HEADER_FIELDS = (
    "fingerprint", "plan_key", "experiment", "indexing", "delay_models", "scenarios", "seeds",
    "labels", "runs_total", "shard_count", "sha256",
)
_WORKER_FIELDS = (
    "fingerprint", "worker", "shard", "points", "points_computed", "points_stolen",
    "points_lost", "runs_executed", "runs_reused", "sha256",
)

#: A work-stealing worker's place in the covering: it checkpoints whole points.
_WHOLE = ShardSpec(1, 1)


class LeaseError(ManifestError):
    """A lease request or lease file is unusable."""


# ------------------------------------------------------------------- paths
def plan_header_path(out_dir: Union[str, Path]) -> Path:
    """Where the plan header of a run directory lives."""
    return Path(out_dir) / PLAN_HEADER_NAME


def lease_dir(out_dir: Union[str, Path]) -> Path:
    """The lease subdirectory of a run directory."""
    return Path(out_dir) / LEASE_DIR_NAME


def worker_manifest_path(out_dir: Union[str, Path], worker: str) -> Path:
    """Where one writer's manifest lives."""
    return Path(out_dir) / f"worker-{worker}.json"


def find_worker_manifests(out_dir: Union[str, Path]) -> List[Path]:
    """Every worker manifest in ``out_dir``, sorted by writer name."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ManifestError(f"{out} is not a directory")
    return sorted(path for path in out.iterdir() if _WORKER_MANIFEST_RE.match(path.name))


def default_worker_name() -> str:
    """This process's worker identity: ``<hostname>-<pid>``.

    Unique per live process, which is what the lease protocol needs; a
    *restarted* worker gets a fresh name and recovers its own dead leases
    through the ordinary expiry-and-steal path.
    """
    return sanitize_worker_name(f"{socket.gethostname()}-{os.getpid()}")


def sanitize_worker_name(worker: str) -> str:
    """Make a worker name safe to embed in lease and manifest filenames."""
    cleaned = _WORKER_NAME_RE.sub("-", worker.strip()).strip("-.")
    if not cleaned:
        raise LeaseError(f"unusable worker name {worker!r}")
    return cleaned


# ------------------------------------------------------------- plan header
def write_plan_header(
    out_dir: Union[str, Path], plan: SweepPlan, shard_count: int = 1
) -> Path:
    """Publish (or validate against) the plan header of ``out_dir``.

    The first writer of either kind creates ``plan.json`` atomically and
    exclusively; every later writer -- and :class:`RunDirectory`, which
    needs nothing but the directory -- validates against it.  A header for
    a different plan, or for a covering of another ``shard_count``, is
    refused by name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = plan_header_path(out)
    header = seal({**plan_provenance(plan), "shard_count": shard_count})
    encoded = json.dumps(header, indent=2).encode("utf-8")
    if not path.exists() and _atomic_write_bytes(path, encoded, exclusive=True):
        return path
    recorded = read_plan_header(out)
    if recorded["fingerprint"] != header["fingerprint"]:
        raise ManifestError(
            f"{path} belongs to a different plan (fingerprint {str(recorded['fingerprint'])[:12]}"
            f"... != {header['fingerprint'][:12]}...); every writer sharing an output directory "
            f"must run the same experiment with the same seeds -- merge or clear that directory "
            f"before reusing it"
        )
    if recorded["shard_count"] != shard_count:
        raise ManifestError(
            f"{path} splits the plan into {recorded['shard_count']} shard(s) but this writer "
            f"is a shard of {shard_count} (a --steal worker is shard 1/1); every writer sharing "
            f"an output directory splits it the same way -- merge or clear it before reusing it"
        )
    return path


def read_plan_header(out_dir: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate the plan header of ``out_dir`` (it is sealed)."""
    return read_artifact(plan_header_path(out_dir), "plan header", _HEADER_FIELDS)


# ------------------------------------------------------------------ leases
@dataclass(frozen=True)
class Lease:
    """One generation of one point's lease, as read from (or written to) disk.

    ``corrupt`` marks a lease file that could not be parsed; it reports
    itself expired whatever the clock says, so a torn write makes a point
    stealable instead of stuck.
    """

    point_index: int
    generation: int
    worker: str
    acquired_at: float
    renewed_at: float
    ttl: float
    path: Path
    corrupt: bool = False
    #: The holder's telemetry snapshot, refreshed with every heartbeat --
    #: the lease file doubles as the worker's live metrics channel (see
    #: :mod:`repro.obs.telemetry`).
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def expires_at(self) -> float:
        """The wall-clock time after which this lease may be stolen."""
        return self.renewed_at + self.ttl

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this lease is past its TTL (corrupt leases always are)."""
        if self.corrupt:
            return True
        return (time.time() if now is None else now) >= self.expires_at


def _lease_path(out_dir: Union[str, Path], point_index: int, generation: int) -> Path:
    return lease_dir(out_dir) / f"point-{point_index:04d}-gen-{generation:04d}.json"


def _lease_payload(lease: Lease, fingerprint: str) -> bytes:
    payload = {
        "version": MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "point_index": lease.point_index,
        "generation": lease.generation,
        "worker": lease.worker,
        "acquired_at": lease.acquired_at,
        "renewed_at": lease.renewed_at,
        "ttl": lease.ttl,
    }
    if lease.telemetry is not None:
        payload["telemetry"] = lease.telemetry
    return json.dumps(payload, indent=2).encode("utf-8")


def _check_seconds(name: str, value: float) -> None:
    """Refuse a duration that is not a finite number of seconds above zero."""
    if not (math.isfinite(value) and value > 0):
        raise LeaseError(f"{name} must be a finite number of seconds > 0, got {value}")


def _parse_lease(path: Path, point_index: int, generation: int, warn: bool = True) -> Lease:
    """Read one lease file; corrupt files come back as expired, with a warning.

    Corrupt is what :func:`~.distributed.read_artifact` refuses, a field of
    the wrong type, or times no clock passes (which would pin the point).
    """
    try:
        raw = read_artifact(path, "lease", ("worker", "acquired_at", "renewed_at", "ttl"))
        telemetry = raw.get("telemetry")
        lease = Lease(
            point_index=point_index,
            generation=generation,
            worker=str(raw["worker"]),
            acquired_at=float(raw["acquired_at"]),
            renewed_at=float(raw["renewed_at"]),
            ttl=float(raw["ttl"]),
            path=path,
            telemetry=telemetry if isinstance(telemetry, dict) else None,
        )
        if not (math.isfinite(lease.acquired_at) and math.isfinite(lease.renewed_at)):
            raise ValueError(f"times must be finite, got {lease.acquired_at}, {lease.renewed_at}")
        _check_seconds("ttl", lease.ttl)
        return lease
    except (ValueError, TypeError, OverflowError) as error:
        if warn:
            warnings.warn(
                f"treating corrupt lease file {path.name} as expired: {error}",
                RuntimeWarning,
            )
        return Lease(point_index, generation, "?", 0.0, 0.0, 0.0, path, corrupt=True)


def _lease_index(out_dir: Union[str, Path]) -> Dict[int, Tuple[int, Path]]:
    """One directory scan: each point's highest lease generation and its file.

    Shared by :func:`current_lease` (one point) and :func:`steal_status`
    (every point), so a status call over a P-point plan costs one scan of
    ``leases/``, not P of them.
    """
    index: Dict[int, Tuple[int, Path]] = {}
    directory = lease_dir(out_dir)
    if not directory.is_dir():
        return index
    for path in directory.iterdir():
        match = _LEASE_RE.match(path.name)
        if not match:
            continue
        point_index, generation = int(match.group(1)), int(match.group(2))
        if point_index not in index or generation > index[point_index][0]:
            index[point_index] = (generation, path)
    return index


def current_lease(
    out_dir: Union[str, Path], point_index: int, warn: bool = True
) -> Optional[Lease]:
    """The live (highest-generation) lease of one point, if any."""
    entry = _lease_index(out_dir).get(point_index)
    if entry is None:
        return None
    generation, path = entry
    return _parse_lease(path, point_index, generation, warn=warn)


def live_leases(out_dir: Union[str, Path]) -> List[Lease]:
    """The live lease of every leased point, ordered by point index.

    One directory scan; used by the observability layer (``serve`` and
    ``status --watch``) to read heartbeat ages and the per-worker telemetry
    snapshots that ride the lease files.
    """
    return [
        _parse_lease(path, point_index, generation, warn=False)
        for point_index, (generation, path) in sorted(_lease_index(out_dir).items())
    ]


def try_claim(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
) -> Optional[Lease]:
    """Attempt the initial (generation-0) claim of a point; None if lost.

    Atomic and single-winner: of any number of workers claiming the same
    point, exactly one gets the lease back and the rest get ``None``.
    """
    return _try_acquire(out_dir, plan, point_index, worker, ttl, generation=0)


def try_steal(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
    current: Lease,
) -> Optional[Lease]:
    """Attempt to steal a point whose ``current`` lease has expired.

    Creates generation ``current.generation + 1``; of any number of
    stealers racing for the same expired lease, exactly one wins.  Stealing
    a live lease is refused with :class:`LeaseError` -- callers decide
    expiry *before* stealing, with :meth:`Lease.expired`.
    """
    if not current.expired():
        raise LeaseError(
            f"lease of point {point_index} (held by {current.worker!r}, "
            f"generation {current.generation}) has not expired; refusing to steal"
        )
    return _try_acquire(
        out_dir, plan, point_index, worker, ttl, generation=current.generation + 1
    )


def _try_acquire(
    out_dir: Union[str, Path],
    plan: SweepPlan,
    point_index: int,
    worker: str,
    ttl: float,
    generation: int,
) -> Optional[Lease]:
    _check_seconds("lease ttl", ttl)
    if not 0 <= point_index < len(plan.points):
        raise LeaseError(
            f"point index {point_index} outside the plan's 0..{len(plan.points) - 1}"
        )
    lease_dir(out_dir).mkdir(parents=True, exist_ok=True)
    now = time.time()
    lease = Lease(
        point_index=point_index,
        generation=generation,
        worker=worker,
        acquired_at=now,
        renewed_at=now,
        ttl=float(ttl),
        path=_lease_path(out_dir, point_index, generation),
    )
    if not _atomic_write_bytes(
        lease.path, _lease_payload(lease, plan.fingerprint()), exclusive=True
    ):
        return None
    return lease


def renew_lease(
    lease: Lease, fingerprint: str, telemetry: Optional[Dict[str, Any]] = None
) -> Optional[Lease]:
    """Refresh a held lease's heartbeat; ``None`` when it was superseded.

    The holder atomically rewrites its own generation file with a fresh
    ``renewed_at``, then checks for a higher generation: finding one means
    a stealer decided this lease dead (the holder stalled past its TTL),
    and the holder must treat the point as no longer exclusively its own.
    ``telemetry`` (a :meth:`~repro.obs.telemetry.Telemetry.snapshot`)
    piggybacks on the heartbeat so worker metrics cost no extra file.
    """
    renewed = replace(
        lease,
        renewed_at=time.time(),
        telemetry=telemetry if telemetry is not None else lease.telemetry,
    )
    _atomic_write_bytes(lease.path, _lease_payload(renewed, fingerprint))
    top = current_lease(lease.path.parent.parent, lease.point_index, warn=False)
    if top is not None and top.generation > lease.generation:
        return None
    return renewed


# -------------------------------------------------------------- claim loop
@dataclass
class PointTask:
    """One claimed sweep point, ready to execute.

    ``positions`` are the seed positions to run, ``start``/``step`` the
    affine remap restoring each run's unsharded summary index (see
    :class:`~repro.harness.aggregate.SummaryReducer`).  ``superseded``
    flips when the holder's lease was stolen mid-execution.
    """

    point_index: int
    label: str
    positions: List[int]
    start: int
    step: int
    checkpoint: Path
    lease: Optional[Lease] = None
    superseded: bool = False


def execute_point(
    plan: SweepPlan,
    task: PointTask,
    max_workers: Optional[int],
) -> List[RunSummary]:
    """Run one claimed point's configurations and summarize them.

    Imports ``run_many`` from :mod:`~repro.harness.parallel` at call time:
    reading a run directory must not load the simulator, and the call-time
    lookup is the test seam -- monkeypatching ``parallel.run_many``
    simulates killed workers.
    """
    from .parallel import run_many

    point = plan.points[task.point_index]
    configs = [point.config.with_seed(plan.seeds[si]) for si in task.positions]
    reducer = SummaryReducer(entropy=plan.entropy, start=task.start, step=task.step)
    return run_many(configs, max_workers=max_workers, check=point.check, reducer=reducer)


def drive_claims(
    plan: SweepPlan,
    scheduler: Any,
    max_workers: Optional[int] = None,
) -> Any:
    """Run a scheduler's claim loop to completion and return its result.

    The one loop both schedulers share: ask the scheduler for claimed
    tasks, execute each under the scheduler's hold (a timer, plus a lease
    heartbeat for work stealing), and hand the summaries back for
    checkpointing.  Static sharding is the case where every claim succeeds
    and nothing is ever stolen.  For the whole loop, every pass of the
    cyclic collector is recorded under the writer's ``gc_seconds`` timer.
    """
    from .parallel import plan_pool

    with scheduler.telemetry.time_collector(), plan_pool(plan, max_workers):
        for task in scheduler.claims():
            with scheduler.hold(task):
                summaries = execute_point(plan, task, max_workers)
            scheduler.complete(task, summaries)
    return scheduler.finish()



class _Writer:
    """What both scheduling policies share: one shard's checkpoints and manifest.

    A writer is one shard of the header's covering under one name (a
    work-stealing worker is shard 1/1).  It creates or validates the plan
    header, resumes its shard's valid checkpoints, writes its own, and keeps
    one manifest -- ``worker-<name>.json``, the same form for every policy --
    recording each settled point's outcome and runs plus its telemetry.
    """

    def __init__(self, plan: SweepPlan, out_dir: Path, worker: str, shard: ShardSpec) -> None:
        self.plan = plan
        self.out = Path(out_dir)
        self.worker = worker
        self.shard = shard
        write_plan_header(self.out, plan, shard.count)
        self.manifest = worker_manifest_path(self.out, worker)
        self.telemetry = Telemetry()
        self._fingerprint = plan.fingerprint()
        #: Each settled point's ``(outcome, runs)``, by point index.
        self._recorded: Dict[int, Tuple[str, int]] = {}

    def _resume(self, point_index: int) -> Optional[List[RunSummary]]:
        """This shard's valid checkpoint of a point; an unusable one warns and reads as none."""
        path = checkpoint_path(self.out, self.shard, point_index)
        if not path.exists():
            return None
        try:
            return _load_checkpoint(path, self.plan, self.shard, point_index)
        except ManifestError as error:
            label = self.plan.points[point_index].label
            warnings.warn(f"recomputing point {label!r}: {error}", RuntimeWarning)
            return None

    def _task(self, point_index: int, lease: Optional[Lease] = None) -> PointTask:
        positions = self.plan.owned_positions(point_index, self.shard)
        return PointTask(
            point_index=point_index,
            label=self.plan.points[point_index].label,
            positions=positions,
            start=self.plan.run_index(point_index, positions[0]),
            step=self.shard.count,
            checkpoint=checkpoint_path(self.out, self.shard, point_index),
            lease=lease,
        )

    @contextmanager
    def hold(self, task: PointTask) -> Iterator[None]:
        """Time the point; a static shard holds no lease to renew."""
        with self.telemetry.timer("point_seconds"):
            yield

    def _checkpoint(self, task: PointTask, summaries: List[RunSummary]) -> None:
        _write_checkpoint(
            task.checkpoint,
            self.plan,
            self.shard,
            task.point_index,
            summaries,
            provenance={
                "worker": self.worker,
                "lease_generation": None if task.lease is None else task.lease.generation,
            },
        )
        self.telemetry.inc("points_computed")
        self.telemetry.inc("runs_executed", len(summaries))
        self.telemetry.set_gauge("last_checkpoint_at", time.time())

    def _settle(self, point_index: int, outcome: str, runs: int) -> None:
        self._recorded[point_index] = (outcome, runs)
        self._write_manifest()

    def finish(self) -> Any:
        """Write the final manifest and report what this writer did."""
        self._write_manifest()
        return self.result

    def _write_manifest(self) -> None:
        computed = [runs for outcome, runs in self._recorded.values() if outcome in ("executed", "stolen")]
        outcomes = [outcome for outcome, _ in self._recorded.values()]
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self._fingerprint,
            "worker": self.worker,
            "shard": str(self.shard),
            "points": {
                str(point_index): {
                    "label": self.plan.points[point_index].label,
                    "outcome": outcome,
                    "runs": runs,
                }
                for point_index, (outcome, runs) in sorted(self._recorded.items())
            },
            "points_computed": len(computed),
            "points_stolen": outcomes.count("stolen"),
            "points_lost": outcomes.count("lost"),
            "runs_executed": sum(computed),
            "runs_reused": sum(
                runs for outcome, runs in self._recorded.values() if outcome == "already-done"
            ),
            "telemetry": self.telemetry.snapshot(),
        }
        _atomic_write_bytes(self.manifest, json.dumps(seal(payload), indent=2).encode("utf-8"))


class StaticShardScheduler(_Writer):
    """The no-lease policy: shard ``i/k``'s fixed round-robin share.

    Every point this shard owns runs of is "claimed" unconditionally, valid
    checkpoints are resumed, and the manifest is rewritten atomically after
    every point so a killed invocation leaves a resumable prefix.
    """

    def __init__(self, plan: SweepPlan, shard: ShardSpec, out_dir: Path) -> None:
        super().__init__(plan, out_dir, f"shard-{shard.index}of{shard.count}", shard)
        self.result = ShardRunResult(shard=shard, out_dir=self.out, manifest=self.manifest)

    def claims(self) -> Iterator[PointTask]:
        """Yield every owned, not-yet-checkpointed point, in plan order."""
        for point_index, point in enumerate(self.plan.points):
            if not self.plan.owned_positions(point_index, self.shard):
                self.result.skipped.append(point.label)
                self._recorded[point_index] = ("not-mine", 0)
                continue
            summaries = self._resume(point_index)
            if summaries is None:
                yield self._task(point_index)
                continue
            self.result.resumed.append(point.label)
            self.result.runs_resumed += len(summaries)
            self._settle(point_index, "already-done", len(summaries))

    def complete(self, task: PointTask, summaries: List[RunSummary]) -> None:
        """Checkpoint one computed point and persist the manifest."""
        self._checkpoint(task, summaries)
        self.result.executed.append(task.label)
        self.result.runs_executed += len(summaries)
        self._settle(task.point_index, "executed", len(summaries))


# ----------------------------------------------------------- work stealing
@dataclass
class StealRunResult:
    """What one work-stealing worker invocation did, by point label.

    ``executed`` were computed from fresh generation-0 claims, ``stolen``
    from expired leases taken over; ``already_done`` had a valid checkpoint
    (any worker's) before this invocation touched them; ``left_behind``
    were un-done when this worker exited -- live-leased by other workers,
    or unattempted because ``max_points`` ran out; ``lost`` were computed
    here but checkpointed by a thief first (possible only after this
    worker stalled past its TTL).
    """

    worker: str
    out_dir: Path
    manifest: Path
    plan_header: Path
    executed: List[str] = field(default_factory=list)
    stolen: List[str] = field(default_factory=list)
    already_done: List[str] = field(default_factory=list)
    left_behind: List[str] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)
    runs_executed: int = 0
    runs_reused: int = 0

    @property
    def computed(self) -> List[str]:
        """Every label this worker computed, claimed or stolen."""
        return self.executed + self.stolen


class WorkStealingScheduler(_Writer):
    """Lease-based policy: claim un-started points, steal expired ones.

    Pass one claims never-leased points (scanning from a worker-specific
    rotation offset, so concurrent workers mostly avoid colliding); pass
    two repeatedly steals points whose leases have expired, until every
    point is checkpointed or everything left is live-leased by someone
    else -- at which point this worker exits rather than wait (re-run it,
    or any other worker, to pick up later orphans).  With ``wait=True``
    the worker idles instead of exiting: it re-polls every
    ``poll_interval`` seconds until the remaining points are checkpointed
    by their holders or their leases expire and become stealable.
    """

    def __init__(
        self,
        plan: SweepPlan,
        out_dir: Path,
        worker: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_points: Optional[int] = None,
        wait: bool = False,
        poll_interval: Optional[float] = None,
    ) -> None:
        _check_seconds("lease ttl", lease_ttl)
        if max_points is not None and max_points < 1:
            raise LeaseError(f"max_points must be >= 1, got {max_points}")
        if poll_interval is not None:
            _check_seconds("poll interval", poll_interval)
        name = sanitize_worker_name(worker) if worker is not None else default_worker_name()
        if _STATIC_SHARD_NAME_RE.fullmatch(name):
            raise LeaseError(
                f"worker name {name!r} is reserved: names of the form shard-IofK "
                f"(shard-\\d+of\\d+) belong to --shard i/k writers, whose manifest "
                f"worker-{name}.json a --steal worker of that name would overwrite"
            )
        super().__init__(plan, out_dir, name, _WHOLE)
        self.ttl = float(lease_ttl)
        self.max_points = max_points
        self.wait = wait
        #: Default idle re-poll cadence tracks the heartbeat cadence: there
        #: is nothing new to observe between two renewals of a live lease.
        self.poll_interval = (
            float(poll_interval) if poll_interval is not None else max(self.ttl / 4.0, 0.01)
        )
        lease_dir(self.out).mkdir(parents=True, exist_ok=True)
        self.result = StealRunResult(
            worker=self.worker,
            out_dir=self.out,
            manifest=self.manifest,
            plan_header=plan_header_path(self.out),
        )
        self._computed = 0

    # ------------------------------------------------------------- claiming
    def claims(self) -> Iterator[PointTask]:
        """Yield leased tasks: fresh claims first, then steals of expired leases."""
        for point_index in self._rotation():
            if self._exhausted():
                break
            if self._settled(point_index):
                continue
            lease = try_claim(self.out, self.plan, point_index, self.worker, self.ttl)
            if lease is not None:
                yield self._task(point_index, lease)
        while not self._exhausted():
            progressed = False
            for point_index in self._rotation():
                if self._exhausted():
                    break
                if self._settled(point_index):
                    continue
                current = current_lease(self.out, point_index)
                if current is None:
                    lease = try_claim(self.out, self.plan, point_index, self.worker, self.ttl)
                elif current.expired():
                    lease = try_steal(
                        self.out, self.plan, point_index, self.worker, self.ttl, current
                    )
                else:
                    continue
                if lease is not None:
                    progressed = True
                    yield self._task(point_index, lease)
            if not self._outstanding():
                break
            if not progressed:
                if not self.wait:
                    break
                # Everything left is live-leased by other workers.  Idle
                # instead of exiting: their checkpoints will settle the
                # points, or their leases will expire and become ours.
                self.telemetry.inc("idle_polls")
                time.sleep(self.poll_interval)
        for point_index in self._outstanding():
            self._recorded[point_index] = ("left-behind", 0)
            self.result.left_behind.append(self.plan.points[point_index].label)
        self._write_manifest()

    @contextmanager
    def hold(self, task: PointTask) -> Iterator[None]:
        """Renew the task's lease from a heartbeat thread while it executes.

        Each renewal carries a fresh telemetry snapshot, so the lease file
        doubles as the worker's live metrics feed while it computes.
        """
        stop = threading.Event()
        interval = max(self.ttl / 4.0, 0.01)

        def beat() -> None:
            """Renew until stopped, superseded, or the context exits."""
            while not stop.wait(interval):
                refreshed = renew_lease(
                    task.lease, self._fingerprint, telemetry=self.telemetry.snapshot()
                )
                if refreshed is None:
                    task.superseded = True
                    return
                task.lease = refreshed

        keeper = threading.Thread(
            target=beat, name=f"lease-keeper-point-{task.point_index}", daemon=True
        )
        keeper.start()
        try:
            with self.telemetry.timer("point_seconds"):
                yield
        finally:
            stop.set()
            keeper.join(timeout=10.0)

    def complete(self, task: PointTask, summaries: List[RunSummary]) -> None:
        """Checkpoint one computed point, unless a thief beat us to it."""
        self._computed += 1
        if task.superseded and task.checkpoint.exists():
            # Stolen from us mid-run and the thief finished first.  Its
            # checkpoint is bit-identical to ours, so nothing is wasted but
            # our own time; record the loss and keep going.
            self.result.lost.append(task.label)
            self.telemetry.inc("points_lost")
            self._settle(task.point_index, "lost", len(summaries))
            return
        self._checkpoint(task, summaries)
        self.result.runs_executed += len(summaries)
        if task.lease.generation > 0:
            self.result.stolen.append(task.label)
            self.telemetry.inc("points_stolen")
            self._settle(task.point_index, "stolen", len(summaries))
        else:
            self.result.executed.append(task.label)
            self._settle(task.point_index, "executed", len(summaries))

    # ------------------------------------------------------------ internals
    def _rotation(self) -> List[int]:
        """Point indices starting at this worker's hash offset.

        Concurrent workers start their scans at different points of the
        plan, so fresh claims mostly avoid fighting over the same lease.
        """
        count = len(self.plan.points)
        offset = int(hashlib.sha256(self.worker.encode("utf-8")).hexdigest(), 16) % count
        return list(range(offset, count)) + list(range(offset))

    def _exhausted(self) -> bool:
        return self.max_points is not None and self._computed >= self.max_points

    def _settled(self, point_index: int) -> bool:
        """Whether this worker is done considering ``point_index``."""
        if point_index in self._recorded:
            return True
        summaries = self._resume(point_index)
        if summaries is None:
            return False
        self.result.already_done.append(self.plan.points[point_index].label)
        self.result.runs_reused += len(summaries)
        self._settle(point_index, "already-done", len(summaries))
        return True

    def _outstanding(self) -> List[int]:
        """Points neither settled by us nor checkpointed by anyone."""
        return [
            point_index
            for point_index in range(len(self.plan.points))
            if point_index not in self._recorded
            and not checkpoint_path(self.out, self.shard, point_index).exists()
        ]


def run_work_stealing(
    plan: SweepPlan,
    out_dir: Union[str, Path],
    worker: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_workers: Optional[int] = None,
    max_points: Optional[int] = None,
    wait: bool = False,
    poll_interval: Optional[float] = None,
) -> StealRunResult:
    """Execute ``plan`` as one work-stealing worker over ``out_dir``.

    Claims un-started sweep points through atomic leases, heartbeats them
    while computing, steals points whose leases expire, and exits when
    every point is checkpointed or only live-leased work remains.  Any
    number of workers (concurrent or sequential, homogeneous or not) may
    share ``out_dir``; :func:`merge_stolen` folds the result bit-identically
    to the single-host sweep.  ``max_points`` bounds how many points this
    invocation computes (useful for fixed-size work grants); ``lease_ttl``
    is how long a silent holder keeps a point before it becomes stealable.
    ``wait=True`` makes the worker idle (re-polling every ``poll_interval``
    seconds, default ``lease_ttl / 4``) when everything left is live-leased,
    instead of exiting -- so a fleet drains a sweep without a supervisor
    re-launching stragglers.
    """
    scheduler = WorkStealingScheduler(
        plan,
        Path(out_dir),
        worker=worker,
        lease_ttl=lease_ttl,
        max_points=max_points,
        wait=wait,
        poll_interval=poll_interval,
    )
    return drive_claims(plan, scheduler, max_workers)


# ------------------------------------------------------- reading a directory
@dataclass
class StealStatus:
    """Aggregate progress of a run directory, whichever policies wrote it.

    ``done`` counts points holding every owning shard's checkpoint.
    ``stolen`` counts points whose live lease generation is above zero --
    points that changed hands at least once, completed or not.
    ``orphaned`` are pending points whose lease expired: claimable by the
    next worker.  ``workers`` holds one row per worker manifest found.
    """

    points_total: int
    done: int
    leased: int
    orphaned: int
    unclaimed: int
    stolen: int
    shard_count: int
    runs_total: int
    experiment: Optional[str]
    plan_key: Optional[str]
    workers: List[Dict[str, Any]] = field(default_factory=list)


class RunDirectory:
    """One read of a run directory: the only code that knows its layout.

    Everything that consumes a run directory -- the merger, ``status``,
    ``serve``, the CLI -- asks this class instead of the files: what
    provenance was recorded, which checkpoint files together hold a point,
    what state each point and writer is in, and why a pending point cannot
    be merged yet.  Construction reads the plan header (so a malformed,
    damaged or wrong-version one raises here, naming the file); a directory
    nothing has been written to yet reads as ``header is None``.  Leases,
    worker manifests and the row views are read on first use and kept: an
    instance is one snapshot, so build a new one to look again.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out = Path(out_dir)
        #: The plan header, or ``None`` while nothing has been written.
        self.header: Optional[Dict[str, Any]] = (
            read_plan_header(self.out) if plan_header_path(self.out).is_file() else None
        )

    # ------------------------------------------------------------ provenance
    def recorded(self) -> Dict[str, Any]:
        """The plan header; a directory holding none is refused."""
        if self.header is None:
            raise ManifestError(
                f"no plan header ({PLAN_HEADER_NAME}) in {self.out}: nothing has been written "
                f"there yet, or only by a build older than version {MANIFEST_VERSION}"
            )
        return self.header

    def check(self, plan: SweepPlan) -> None:
        """Refuse a ``plan`` the header contradicts, naming the header.

        The named fields come first: a delay-model or scenario mismatch
        would also trip the fingerprint check, but with an anonymous digest
        -- the named-field error says *what* differs.
        """
        recorded, expected = self.recorded(), plan_provenance(plan)
        path = plan_header_path(self.out)
        for name in ("delay_models", "scenarios"):
            if recorded[name] != expected[name]:
                raise ManifestError(
                    f"{path} disagrees with the merge plan on {name!r}: the run was produced "
                    f"under {recorded[name]} but the plan has {expected[name]}; runs produced "
                    f"under different delay models or fault scenarios cannot be merged"
                )
        if recorded["fingerprint"] != expected["fingerprint"]:
            raise ManifestError(
                f"{path} belongs to a different plan (fingerprint "
                f"{str(recorded['fingerprint'])[:12]}... != {expected['fingerprint'][:12]}...); "
                f"rebuild the merge plan with the same experiment, seeds and parameters"
            )

    @property
    def shard_count(self) -> int:
        """The header's k: how many shards cover the plan (1 under work stealing)."""
        return self.recorded()["shard_count"]

    # --------------------------------------------------------------- sources
    def sources(self, point_index: int) -> List[Tuple[ShardSpec, Path]]:
        """The ``(shard, checkpoint file)`` pairs that together hold one point.

        One per shard of the header's covering that owns a run of the
        point; a point is complete when each file exists and
        ``_load_checkpoint`` accepts it for its shard.
        """
        seeds, count = len(self.recorded()["seeds"]), self.shard_count
        return [
            (shard, checkpoint_path(self.out, shard, point_index))
            for shard in (ShardSpec(index, count) for index in range(1, count + 1))
            if owned_positions(seeds, point_index, shard)
        ]

    def refuse(self, pending: List[int]) -> None:
        """Raise why the ``pending`` points cannot merge, if a checkpoint is missing.

        Names each point with the shards whose checkpoint it lacks, and the
        lease counts.  Returns when every source file of every pending point
        exists: what is wrong then is inside a checkpoint, which only
        loading it tells.
        """
        wanted = set(pending)
        gaps = [
            f"{row['label']!r} lacks shard "
            + ", ".join(shard for shard, present in row["checkpoints"].items() if not present)
            for row in self.point_rows
            if row["index"] in wanted and row["state"] != "done"
        ]
        if gaps:
            status = self.steal_status()
            raise ManifestError(
                f"run in {self.out} is incomplete: {'; '.join(gaps)} ({status.leased} leased, "
                f"{status.orphaned} orphaned, {status.unclaimed} unclaimed); resume it by "
                f"re-running each lacking shard's command (a --steal worker for shard 1/1) "
                f"before merging"
            )

    # ------------------------------------------------------------ state rows
    @cached_property
    def leases(self) -> List[Lease]:
        """The live lease of every leased point (see :func:`live_leases`)."""
        return live_leases(self.out)

    @cached_property
    def point_rows(self) -> List[Dict[str, Any]]:
        """Each point's index, label, state, checkpoints and lease.

        ``checkpoints`` maps each owning shard (``"i/k"``) to whether its
        checkpoint exists.  ``state`` is ``done`` when all of them do, else
        ``leased``, ``orphaned`` (lease expired) or ``unclaimed``, from the
        point's live lease.  ``generation`` appears once the point has ever
        been leased, and ``worker`` -- the holder -- while it is pending.
        """
        leases = {lease.point_index: lease for lease in self.leases}
        rows = []
        for point_index, label in enumerate(self.recorded()["labels"]):
            checkpoints = {str(shard): path.exists() for shard, path in self.sources(point_index)}
            lease = leases.get(point_index)
            if all(checkpoints.values()):
                state = "done"
            elif lease is None:
                state = "unclaimed"
            elif lease.expired():
                state = "orphaned"
            else:
                state = "leased"
            row = {"index": point_index, "label": label, "state": state, "checkpoints": checkpoints}
            if lease is not None:
                row["generation"] = lease.generation
                if state != "done":
                    row["worker"] = lease.worker
            rows.append(row)
        return rows

    @cached_property
    def worker_rows(self) -> List[Dict[str, Any]]:
        """One row of counts (and telemetry) per worker manifest."""
        rows = []
        for path in find_worker_manifests(self.out):
            raw = read_artifact(path, "worker manifest", _WORKER_FIELDS)
            row = {
                "worker": raw["worker"],
                "shard": raw["shard"],
                "computed": raw["points_computed"],
                "stolen": raw["points_stolen"],
                "lost": raw["points_lost"],
                "runs_executed": raw["runs_executed"],
            }
            if isinstance(raw.get("telemetry"), dict):
                row["telemetry"] = raw["telemetry"]
            rows.append(row)
        return rows

    def steal_status(self) -> StealStatus:
        """The point-state counts and worker rows of the directory."""
        header, rows = self.recorded(), self.point_rows
        states = [row["state"] for row in rows]
        return StealStatus(
            points_total=len(rows),
            done=states.count("done"),
            leased=states.count("leased"),
            orphaned=states.count("orphaned"),
            unclaimed=states.count("unclaimed"),
            stolen=sum(1 for row in rows if row.get("generation", 0) > 0),
            shard_count=header["shard_count"],
            runs_total=header["runs_total"],
            experiment=header["experiment"],
            plan_key=header["plan_key"],
            workers=self.worker_rows,
        )


def steal_status(out_dir: Union[str, Path]) -> StealStatus:
    """Read a run directory's progress from its artifacts alone."""
    return RunDirectory(out_dir).steal_status()


#: The name work-stealing callers know the one merge by: leases, thefts and
#: recomputation leave no trace in the checkpoints it folds.
merge_stolen = merge_directory
