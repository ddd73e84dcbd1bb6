"""Dynamic work stealing for sweep plans, and the one reader of a run directory.

Static sharding (:mod:`~repro.harness.distributed`) fixes ownership up
front: shard ``i/k`` owns every ``k``-th run, forever.  On a homogeneous
fleet that is perfect -- zero coordination -- but one slow or dead host
strands its share of the sweep until someone re-runs that exact shard.
This module adds the coordinator the ROADMAP asked for: workers *claim*
sweep points through atomic lease files in the shared output directory,
renew their claims with heartbeats while computing, and **steal** points
whose leases expire -- so a slow host sheds its un-started points to
faster ones and a killed host's work is picked up automatically.

The unit of claiming is one whole sweep point (every seed of one
parameter combination).  Every run keeps the summary index -- and
therefore the ``SeedSequence(entropy, spawn_key=(index,))`` sketch
priority -- it would have had in the unsharded execution, so the merge
(:func:`~.distributed.merge_directory`, which :func:`merge_stolen` names)
re-folds per-point checkpoints in run-index order through the exact code
path the single-host sweep uses, and the merged aggregates are
*bit-identical* to :func:`~.distributed.run_plan` no matter how many
workers ran, died, restarted or stole.

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
* **corrupt lease files** (torn writes, disk trouble) are treated as
  expired, with a warning -- the point becomes stealable rather than
  stuck.

Because every run of a plan is deterministic, the worst possible race
outcome -- two workers computing the same point -- costs duplicated work
but never correctness: both produce bit-identical summaries and the
checkpoint write is atomic.  Correctness never depends on the clock;
clock skew can only make theft early (duplicated work) or late (idle
time).  See ``docs/distributed.md`` for the full failure-mode table.

On-disk layout (all under the shared ``--out`` directory)::

    plan.json                    header: version, fingerprint, seeds, labels
    leases/point-0003-gen-0001.json   lease provenance, one file per claim/steal
    point-0003.pkl               checkpoint: every RunSummary of point 3
    steal-worker-<name>.json     per-worker manifest: outcomes, lease history

Static sharding is the degenerate scheduler of the same claim loop:
:class:`StaticShardScheduler` claims its round-robin-owned points
unconditionally and never steals, while :class:`WorkStealingScheduler`
claims through leases.  Both feed :func:`drive_claims`, which is the
single execute-and-checkpoint loop.

Reading is single, too: :class:`RunDirectory` is the only code that knows
both this layout and the static one (``shard-IofK.json`` manifests plus
``shard-IofK-point-NNNN.pkl`` checkpoints).  It lives here because this
module already holds or imports everything it reads -- leases, plan header,
worker manifests, and :mod:`~repro.harness.distributed`'s shard manifests
and file namings -- so nothing imports backwards to reach it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from functools import cached_property
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .aggregate import RunSummary, SummaryReducer
from .distributed import (
    MANIFEST_FIELDS,
    MANIFEST_VERSION,
    ManifestError,
    ShardRunResult,
    ShardSpec,
    SweepPlan,
    _atomic_write_bytes,
    _load_checkpoint,
    _write_checkpoint,
    check_merge_provenance,
    checkpoint_path,
    find_manifests,
    manifest_path,
    merge_directory,
    plan_provenance,
    read_artifact,
    read_manifests,
)
from ..obs.telemetry import Telemetry

#: How long a lease stays live without a heartbeat before it can be stolen.
#: Generous by default: a steal only pays off when the holder is minutes
#: gone, and a too-short TTL turns slow points into duplicated work.
DEFAULT_LEASE_TTL = 60.0

#: The shared-plan header file marking a directory as a work-stealing run.
PLAN_HEADER_NAME = "plan.json"

#: Subdirectory of the run directory holding the per-point lease files.
LEASE_DIR_NAME = "leases"

_LEASE_RE = re.compile(r"^point-(\d+)-gen-(\d+)\.json$")
_WORKER_MANIFEST_RE = re.compile(r"^steal-worker-(.+)\.json$")
_WORKER_NAME_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Steal-mode checkpoints cover every seed of a point -- the degenerate
#: whole-plan shard, which is what keeps their summary indices unsharded.
_WHOLE = ShardSpec(1, 1)


class LeaseError(ManifestError):
    """A lease request or lease file is unusable."""


# ------------------------------------------------------------------- paths
def plan_header_path(out_dir: Union[str, Path]) -> Path:
    """Where the shared plan header of a work-stealing run lives."""
    return Path(out_dir) / PLAN_HEADER_NAME


def lease_dir(out_dir: Union[str, Path]) -> Path:
    """The lease subdirectory of a work-stealing run directory."""
    return Path(out_dir) / LEASE_DIR_NAME


def point_checkpoint_path(out_dir: Union[str, Path], point_index: int) -> Path:
    """Where the whole-point checkpoint of a work-stealing run lives."""
    return Path(out_dir) / f"point-{point_index:04d}.pkl"


def worker_manifest_path(out_dir: Union[str, Path], worker: str) -> Path:
    """Where one worker's progress manifest lives."""
    return Path(out_dir) / f"steal-worker-{worker}.json"


def find_worker_manifests(out_dir: Union[str, Path]) -> List[Path]:
    """Every worker manifest in ``out_dir``, sorted by worker name."""
    out = Path(out_dir)
    if not out.is_dir():
        raise ManifestError(f"{out} is not a directory")
    return sorted(path for path in out.iterdir() if _WORKER_MANIFEST_RE.match(path.name))


def is_steal_dir(out_dir: Union[str, Path]) -> bool:
    """Whether ``out_dir`` holds (the start of) a work-stealing run."""
    return plan_header_path(out_dir).is_file()


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


def _atomic_create_bytes(path: Path, payload: bytes) -> bool:
    """Create ``path`` with ``payload`` all-or-nothing; False if it exists.

    The temp-file + ``os.link`` dance makes creation atomic *including the
    content*: a concurrent reader sees either no file or the whole file,
    and of any number of racing creators exactly one wins.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_bytes(payload)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True


# ------------------------------------------------------------- plan header
def write_plan_header(out_dir: Union[str, Path], plan: SweepPlan) -> Path:
    """Publish (or validate against) the shared plan header of ``out_dir``.

    The first worker creates ``plan.json`` atomically; every later worker
    -- and :class:`RunDirectory`, which needs nothing but the directory --
    validates against it.  A directory already holding
    static shard artifacts, or a header for a different plan, is refused.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if find_manifests(out):
        raise ManifestError(
            f"{out} holds static shard artifacts (shard-IofK.json); a run "
            f"directory is either statically sharded or work-stealing, never "
            f"both -- merge or clear it before reusing it"
        )
    path = plan_header_path(out)
    payload = {
        **plan_provenance(plan, "steal"),
        "seeds": list(plan.seeds),
        "labels": [point.label for point in plan.points],
        "runs_total": plan.total_runs,
    }
    encoded = json.dumps(payload, indent=2).encode("utf-8")
    if not path.exists() and _atomic_create_bytes(path, encoded):
        return path
    existing = read_plan_header(out)
    if existing["fingerprint"] != payload["fingerprint"]:
        raise ManifestError(
            f"{path} belongs to a different plan (fingerprint "
            f"{existing['fingerprint'][:12]}... != {payload['fingerprint'][:12]}...); "
            f"every worker sharing an output directory must run the same "
            f"experiment with the same seeds -- merge or clear that directory "
            f"before reusing it"
        )
    return path


def read_plan_header(out_dir: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate the plan header of ``out_dir``."""
    return read_artifact(
        plan_header_path(out_dir), "plan header", ("fingerprint", "seeds", "labels")
    )


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


def _parse_lease(path: Path, point_index: int, generation: int, warn: bool = True) -> Lease:
    """Read one lease file; corrupt files come back as expired, with a warning."""
    try:
        raw = json.loads(path.read_text())
        telemetry = raw.get("telemetry")
        return Lease(
            point_index=point_index,
            generation=generation,
            worker=str(raw["worker"]),
            acquired_at=float(raw["acquired_at"]),
            renewed_at=float(raw["renewed_at"]),
            ttl=float(raw["ttl"]),
            path=path,
            telemetry=telemetry if isinstance(telemetry, dict) else None,
        )
    except (OSError, ValueError, KeyError, TypeError) as error:
        if warn:
            warnings.warn(
                f"treating corrupt lease file {path.name} as expired: {error}",
                RuntimeWarning,
            )
        return Lease(
            point_index=point_index,
            generation=generation,
            worker="?",
            acquired_at=0.0,
            renewed_at=0.0,
            ttl=0.0,
            path=path,
            corrupt=True,
        )


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
    if ttl <= 0:
        raise LeaseError(f"lease ttl must be positive, got {ttl}")
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
    if not _atomic_create_bytes(lease.path, _lease_payload(lease, plan.fingerprint())):
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
    renewed = Lease(
        point_index=lease.point_index,
        generation=lease.generation,
        worker=lease.worker,
        acquired_at=lease.acquired_at,
        renewed_at=time.time(),
        ttl=lease.ttl,
        path=lease.path,
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
    exec_mode: Optional[str] = None,
) -> List[RunSummary]:
    """Run one claimed point's configurations and summarize them.

    Imports ``run_many`` from :mod:`~repro.harness.parallel` at call time:
    reading a run directory must not load the simulator, and the call-time
    lookup is the test seam -- monkeypatching ``parallel.run_many``
    simulates killed workers.
    ``exec_mode`` picks the engine (see :func:`~repro.harness.parallel.run_many`)
    and cannot change any summary — checkpoints merge bit-identically
    whichever mode computed them.
    """
    from .parallel import run_many

    point = plan.points[task.point_index]
    configs = [point.config.with_seed(plan.seeds[si]) for si in task.positions]
    reducer = SummaryReducer(entropy=plan.entropy, start=task.start, step=task.step)
    return run_many(
        configs,
        max_workers=max_workers,
        check=point.check,
        reducer=reducer,
        exec_mode=exec_mode,
    )


def drive_claims(
    plan: SweepPlan,
    scheduler: Any,
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> Any:
    """Run a scheduler's claim loop to completion and return its result.

    The one loop both schedulers share: ask the scheduler for claimed
    tasks, execute each under the scheduler's hold (a lease heartbeat for
    work stealing, a no-op for static shards), and hand the summaries back
    for checkpointing.  Static sharding is the degenerate case where every
    claim succeeds and nothing is ever stolen.
    """
    from .parallel import plan_pool

    with plan_pool(plan, max_workers, exec_mode):
        for task in scheduler.claims():
            with scheduler.hold(task):
                summaries = execute_point(plan, task, max_workers, exec_mode=exec_mode)
            scheduler.complete(task, summaries)
    return scheduler.finish()


class StaticShardScheduler:
    """The degenerate no-steal scheduler: fixed round-robin ownership.

    Reproduces classic ``run_shard`` behaviour through the shared claim
    loop: every point this shard owns is "claimed" unconditionally, valid
    checkpoints are resumed, and the shard manifest is rewritten atomically
    after every point so a killed invocation leaves a resumable prefix.
    """

    schedule = "static"

    def __init__(self, plan: SweepPlan, shard: ShardSpec, out_dir: Path) -> None:
        self.plan = plan
        self.shard = shard
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        if is_steal_dir(self.out):
            raise ManifestError(
                f"{self.out} holds a work-stealing run ({PLAN_HEADER_NAME}); a run "
                f"directory is either statically sharded or work-stealing, never "
                f"both -- merge or clear it before reusing it"
            )
        self._provenance = plan_provenance(plan, self.schedule)
        fingerprint = self._provenance["fingerprint"]
        for existing_path in find_manifests(self.out):
            existing = read_artifact(existing_path, "manifest", MANIFEST_FIELDS)
            if existing["fingerprint"] != fingerprint:
                raise ManifestError(
                    f"{existing_path} belongs to a different plan (fingerprint "
                    f"{existing['fingerprint'][:12]}... != {fingerprint[:12]}...); "
                    f"every shard sharing an output directory must run the same "
                    f"experiment with the same seeds -- merge or clear that "
                    f"directory before reusing it"
                )
        self.result = ShardRunResult(
            shard=shard, out_dir=self.out, manifest=manifest_path(self.out, shard)
        )
        self._points_record: Dict[str, Dict[str, Any]] = {}

    def claims(self) -> Iterator[PointTask]:
        """Yield every owned, not-yet-checkpointed point, in plan order."""
        for point_index, point in enumerate(self.plan.points):
            owned = self.plan.owned_positions(point_index, self.shard)
            record: Dict[str, Any] = {"label": point.label, "runs": len(owned)}
            self._points_record[str(point_index)] = record
            if not owned:
                self.result.skipped.append(point.label)
                record["checkpoint"] = None
                continue
            cpath = checkpoint_path(self.out, self.shard, point_index)
            if cpath.exists():
                try:
                    summaries = _load_checkpoint(cpath, self.plan, self.shard, point_index)
                except ManifestError as error:
                    warnings.warn(
                        f"recomputing point {point.label!r}: {error}", RuntimeWarning
                    )
                else:
                    self.result.resumed.append(point.label)
                    self.result.runs_resumed += len(summaries)
                    record["checkpoint"] = cpath.name
                    self._write_manifest()
                    continue
            yield PointTask(
                point_index=point_index,
                label=point.label,
                positions=owned,
                start=self.plan.run_index(point_index, owned[0]),
                step=self.shard.count,
                checkpoint=cpath,
            )

    @contextmanager
    def hold(self, task: PointTask) -> Iterator[None]:
        """No-op: static ownership needs no heartbeat."""
        yield

    def complete(self, task: PointTask, summaries: List[RunSummary]) -> None:
        """Checkpoint one computed point and persist the manifest."""
        _write_checkpoint(
            task.checkpoint,
            self.plan,
            self.shard,
            task.point_index,
            summaries,
            provenance={"schedule": self.schedule},
        )
        self.result.executed.append(task.label)
        self.result.runs_executed += len(summaries)
        self._points_record[str(task.point_index)]["checkpoint"] = task.checkpoint.name
        self._write_manifest()

    def finish(self) -> ShardRunResult:
        """Write the final manifest and report what this shard did."""
        self._write_manifest()
        return self.result

    def _write_manifest(self) -> None:
        payload = {
            **self._provenance,
            "shard_index": self.shard.index,
            "shard_count": self.shard.count,
            "seeds": list(self.plan.seeds),
            "labels": [point.label for point in self.plan.points],
            "points": self._points_record,
            "runs_total": sum(
                len(self.plan.owned_positions(pi, self.shard))
                for pi in range(len(self.plan.points))
            ),
            "runs_done": self.result.runs_executed + self.result.runs_resumed,
        }
        _atomic_write_bytes(
            self.result.manifest, json.dumps(payload, indent=2).encode("utf-8")
        )


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


class WorkStealingScheduler:
    """Lease-based scheduler: claim un-started points, steal expired ones.

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

    schedule = "steal"

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
        if lease_ttl <= 0:
            raise LeaseError(f"lease ttl must be positive, got {lease_ttl}")
        if max_points is not None and max_points < 1:
            raise LeaseError(f"max_points must be >= 1, got {max_points}")
        if poll_interval is not None and poll_interval <= 0:
            raise LeaseError(f"poll interval must be positive, got {poll_interval}")
        self.plan = plan
        self.out = Path(out_dir)
        self.worker = (
            sanitize_worker_name(worker) if worker is not None else default_worker_name()
        )
        self.ttl = float(lease_ttl)
        self.max_points = max_points
        self.wait = wait
        #: Default idle re-poll cadence tracks the heartbeat cadence: there
        #: is nothing new to observe between two renewals of a live lease.
        self.poll_interval = (
            float(poll_interval) if poll_interval is not None else max(self.ttl / 4.0, 0.01)
        )
        self.telemetry = Telemetry()
        header = write_plan_header(self.out, plan)
        lease_dir(self.out).mkdir(parents=True, exist_ok=True)
        self.result = StealRunResult(
            worker=self.worker,
            out_dir=self.out,
            manifest=worker_manifest_path(self.out, self.worker),
            plan_header=header,
        )
        #: The worker manifest records the plan, not its named-field lists.
        self._provenance = plan_provenance(plan, self.schedule)
        del self._provenance["delay_models"], self._provenance["scenarios"]
        self._fingerprint = self._provenance["fingerprint"]
        self._recorded: Dict[int, str] = {}
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
            label = self.plan.points[point_index].label
            self._recorded[point_index] = "left-behind"
            self.result.left_behind.append(label)
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
            self._recorded[task.point_index] = "lost"
            self.result.lost.append(task.label)
            self.telemetry.inc("points_lost")
            self._write_manifest()
            return
        _write_checkpoint(
            task.checkpoint,
            self.plan,
            _WHOLE,
            task.point_index,
            summaries,
            provenance={
                "schedule": self.schedule,
                "worker": self.worker,
                "lease_generation": task.lease.generation,
                "stolen": task.lease.generation > 0,
            },
        )
        self.result.runs_executed += len(summaries)
        self.telemetry.inc("points_computed")
        self.telemetry.inc("runs_executed", len(summaries))
        self.telemetry.set_gauge("last_checkpoint_at", time.time())
        if task.lease.generation > 0:
            self._recorded[task.point_index] = "stolen"
            self.result.stolen.append(task.label)
            self.telemetry.inc("points_stolen")
        else:
            self._recorded[task.point_index] = "executed"
            self.result.executed.append(task.label)
        self._write_manifest()

    def finish(self) -> StealRunResult:
        """Write the final worker manifest and report what this worker did."""
        self._write_manifest()
        return self.result

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
        cpath = point_checkpoint_path(self.out, point_index)
        label = self.plan.points[point_index].label
        if cpath.exists():
            try:
                summaries = _load_checkpoint(cpath, self.plan, _WHOLE, point_index)
            except ManifestError as error:
                warnings.warn(
                    f"recomputing point {label!r}: {error}", RuntimeWarning
                )
                return False
            self._recorded[point_index] = "already-done"
            self.result.already_done.append(label)
            self.result.runs_reused += len(summaries)
            self._write_manifest()
            return True
        return False

    def _outstanding(self) -> List[int]:
        """Points neither settled by us nor checkpointed by anyone."""
        return [
            point_index
            for point_index in range(len(self.plan.points))
            if point_index not in self._recorded
            and not point_checkpoint_path(self.out, point_index).exists()
        ]

    def _task(self, point_index: int, lease: Lease) -> PointTask:
        return PointTask(
            point_index=point_index,
            label=self.plan.points[point_index].label,
            positions=list(range(len(self.plan.seeds))),
            start=self.plan.run_index(point_index, 0),
            step=1,
            checkpoint=point_checkpoint_path(self.out, point_index),
            lease=lease,
        )

    def _write_manifest(self) -> None:
        outcomes = {
            str(point_index): {
                "label": self.plan.points[point_index].label,
                "outcome": outcome,
            }
            for point_index, outcome in sorted(self._recorded.items())
        }
        payload = {
            **self._provenance,
            "worker": self.worker,
            "lease_ttl": self.ttl,
            "points": outcomes,
            "points_computed": len(self.result.executed) + len(self.result.stolen),
            "points_stolen": len(self.result.stolen),
            "points_lost": len(self.result.lost),
            "runs_executed": self.result.runs_executed,
            "runs_reused": self.result.runs_reused,
            "telemetry": self.telemetry.snapshot(),
        }
        _atomic_write_bytes(
            self.result.manifest, json.dumps(payload, indent=2).encode("utf-8")
        )


def run_work_stealing(
    plan: SweepPlan,
    out_dir: Union[str, Path],
    worker: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_workers: Optional[int] = None,
    max_points: Optional[int] = None,
    exec_mode: Optional[str] = None,
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
    re-launching stragglers.  For the whole call, every pass of the cyclic
    collector is recorded under the worker's ``gc_seconds`` telemetry timer.
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
    with scheduler.telemetry.time_collector():
        return drive_claims(plan, scheduler, max_workers, exec_mode=exec_mode)


# ------------------------------------------------------- reading a directory
@dataclass
class StealStatus:
    """Aggregate progress of a work-stealing run directory.

    ``stolen`` counts points whose live lease generation is above zero --
    points that changed hands at least once, completed or not.
    ``orphaned`` are points whose lease expired with no checkpoint:
    claimable by the next worker.  ``workers`` holds one row per worker
    manifest found.
    """

    points_total: int
    done: int
    leased: int
    orphaned: int
    unclaimed: int
    stolen: int
    runs_total: int
    experiment: Optional[str]
    plan_key: Optional[str]
    workers: List[Dict[str, Any]] = field(default_factory=list)


class RunDirectory:
    """One read of a sweep directory: the only code that knows its two layouts.

    Everything that consumes a run directory -- the merger, ``status``,
    ``serve``, the CLI -- asks this class instead of the files: what
    provenance was recorded, which checkpoint files together hold a point,
    what state each point or shard is in, and why a pending point cannot be
    merged yet.  Construction reads the plan header, or every shard manifest
    through :func:`~.distributed.read_manifests` (so disagreeing, malformed
    or wrong-version artifacts raise here, naming the file); a directory
    nothing has been written to yet reads as ``layout is None``.  Leases,
    worker manifests and the row views are read on first use and kept: an
    instance is one snapshot, so build a new one to look again.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out = Path(out_dir)
        #: ``"steal"``, ``"static"``, or ``None`` for nothing written (yet).
        self.layout: Optional[str] = None
        #: The recorded plan provenance: the plan header, or the first shard
        #: manifest once all of them have been checked to agree.
        self.provenance: Optional[Dict[str, Any]] = None
        #: Every shard manifest, in shard order (static layout only).
        self.manifests: List[Dict[str, Any]] = []
        if is_steal_dir(self.out):
            self.layout, self.provenance = "steal", read_plan_header(self.out)
        elif self.out.is_dir() and find_manifests(self.out):
            self.manifests = read_manifests(self.out)
            self.layout, self.provenance = "static", self.manifests[0]
        #: What ``shard_count`` counts, and what the artifacts are called.
        self.unit = "worker" if self.layout == "steal" else "shard"
        self.what = "work-stealing artifacts" if self.layout == "steal" else "shards"

    # ------------------------------------------------------------ provenance
    def recorded(self) -> Dict[str, Any]:
        """The recorded provenance; a directory holding none is refused."""
        # The strict manifest read words the refusal (not a directory / no
        # shard manifests) -- or finds what landed since construction.
        return self.provenance or read_manifests(self.out)[0]

    def check(self, plan: SweepPlan) -> None:
        """Refuse a ``plan`` the recorded provenance contradicts."""
        check_merge_provenance(self.recorded(), plan, self.out, what=self.what)

    @property
    def shard_count(self) -> int:
        """How many writers are on record: shards of the covering, or workers."""
        if self.layout == "static":
            return int(self.provenance["shard_count"])
        return max(len(find_worker_manifests(self.out)), 1)

    # --------------------------------------------------------------- sources
    def sources(self, plan: SweepPlan, point_index: int) -> List[Tuple[ShardSpec, Path]]:
        """The ``(shard, checkpoint file)`` pairs that together hold one point.

        Work stealing checkpoints a point whole; static sharding spreads it
        over every shard owning one of its runs.  A point is complete when
        each file exists and ``_load_checkpoint`` accepts it for its shard.
        """
        if self.layout == "steal":
            return [(_WHOLE, point_checkpoint_path(self.out, point_index))]
        count = self.shard_count
        shards = (ShardSpec(index, count) for index in range(1, count + 1))
        return [
            (shard, checkpoint_path(self.out, shard, point_index))
            for shard in shards
            if plan.owned_positions(point_index, shard)
        ]

    def refuse(self, plan: SweepPlan, pending: List[int]) -> None:
        """Raise why the ``pending`` points cannot merge, if a file is missing.

        Returns when every source file of every pending point exists: what
        is wrong then is inside a checkpoint, which only loading it tells.
        """
        self.recorded()  # nothing written at all is refused here
        absent = {
            point_index: [
                shard for shard, path in self.sources(plan, point_index) if not path.exists()
            ]
            for point_index in pending
        }
        if self.layout == "steal":
            unfinished = [plan.points[pi].label for pi in pending if absent[pi]]
            if unfinished:
                status = self.steal_status()
                raise ManifestError(
                    f"work-stealing run in {self.out} is incomplete: points {unfinished} "
                    f"have no checkpoint yet ({status.leased} leased, {status.orphaned} "
                    f"orphaned, {status.unclaimed} unclaimed); run another worker over "
                    f"this directory to finish them before merging"
                )
            return
        count = self.shard_count
        expected = range(1, count + 1)
        missing = sorted(set(expected) - {manifest["shard_index"] for manifest in self.manifests})
        if missing:
            raise ManifestError(
                f"{self.out} does not hold a complete 1..{count} shard covering: "
                f"missing shards {missing}"
            )
        for shard in (ShardSpec(index, count) for index in expected):
            incomplete = [plan.points[pi].label for pi in pending if shard in absent[pi]]
            if incomplete:
                raise ManifestError(
                    f"shard {shard} is incomplete (points {incomplete} have no "
                    f"checkpoint yet); resume it by re-running its original run "
                    f"command before merging"
                )

    # ------------------------------------------------------------ state rows
    @cached_property
    def leases(self) -> List[Lease]:
        """The live lease of every leased point (see :func:`live_leases`)."""
        return live_leases(self.out)

    @cached_property
    def point_rows(self) -> List[Dict[str, Any]]:
        """Work stealing: each point's index, label, state and live lease holder.

        ``state`` is ``done`` (checkpointed), ``leased``, ``orphaned`` (lease
        expired, no checkpoint) or ``unclaimed``; ``worker`` and
        ``generation`` appear once the point has ever been leased.
        """
        leases = {lease.point_index: lease for lease in self.leases}
        rows = []
        for point_index, label in enumerate(self.provenance["labels"]):
            lease = leases.get(point_index)
            if point_checkpoint_path(self.out, point_index).exists():
                state = "done"
            elif lease is None:
                state = "unclaimed"
            elif lease.expired():
                state = "orphaned"
            else:
                state = "leased"
            row = {"index": point_index, "label": label, "state": state}
            if lease is not None:
                row.update(worker=lease.worker, generation=lease.generation)
            rows.append(row)
        return rows

    @cached_property
    def worker_rows(self) -> List[Dict[str, Any]]:
        """Work stealing: one row of counts (and telemetry) per worker manifest."""
        rows = []
        for path in find_worker_manifests(self.out):
            raw = read_artifact(path, "worker manifest", ())
            row = {
                "worker": raw.get("worker", "?"),
                "computed": raw.get("points_computed", 0),
                "stolen": raw.get("points_stolen", 0),
                "lost": raw.get("points_lost", 0),
                "runs_executed": raw.get("runs_executed", 0),
            }
            if isinstance(raw.get("telemetry"), dict):
                row["telemetry"] = raw["telemetry"]
            rows.append(row)
        return rows

    @cached_property
    def shard_rows(self) -> List[Dict[str, Any]]:
        """Static sharding: each shard's own record of its progress.

        A killed shard's manifest has records only for the points it
        reached, so the denominator is the whole plan (the labels list).
        """
        rows = []
        for manifest in self.manifests:
            points = manifest["points"]
            rows.append(
                {
                    "shard": f"{manifest['shard_index']}/{manifest['shard_count']}",
                    "points_done": sum(
                        1
                        for record in points.values()
                        if not record["runs"] or record.get("checkpoint")
                    ),
                    "points_total": len(manifest.get("labels") or points),
                    "runs_done": manifest.get("runs_done"),
                    "runs_total": manifest.get("runs_total"),
                }
            )
        return rows

    def steal_status(self) -> StealStatus:
        """The point-state counts and worker rows of a work-stealing run."""
        if self.layout != "steal":
            raise ManifestError(f"{self.out} holds no work-stealing run ({PLAN_HEADER_NAME})")
        rows = self.point_rows
        states = [row["state"] for row in rows]
        return StealStatus(
            points_total=len(rows),
            done=states.count("done"),
            leased=states.count("leased"),
            orphaned=states.count("orphaned"),
            unclaimed=states.count("unclaimed"),
            stolen=sum(1 for row in rows if row.get("generation", 0) > 0),
            runs_total=self.provenance.get("runs_total", 0),
            experiment=self.provenance.get("experiment"),
            plan_key=self.provenance.get("plan_key"),
            workers=self.worker_rows,
        )


def steal_status(out_dir: Union[str, Path]) -> StealStatus:
    """Read a work-stealing directory's progress from its artifacts alone."""
    return RunDirectory(out_dir).steal_status()


#: The name work-stealing callers know the one merge by: leases, thefts and
#: recomputation leave no trace in the checkpoints it folds.
merge_stolen = merge_directory
