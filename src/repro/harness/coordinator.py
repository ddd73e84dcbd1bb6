"""Scheduling a sweep over a shared run directory, and the one reader of it.

Any number of *writers* fill one run directory with one plan's work, each
as one shard ``i/k`` of the plan's round-robin covering.  There is one
writer, :class:`SweepWriter`, with one claim loop; whether it holds leases
decides which points it computes:

* a **static shard** (``--shard i/k``, a writer named ``shard-IofK``) holds
  none: it claims every point it owns runs of in one pass, every claim
  succeeds, and nothing is left to steal.  On a homogeneous fleet that is
  perfect -- zero coordination -- but one slow or dead host strands its
  share of the sweep until someone re-runs that exact shard.
* a **work-stealing worker** (``--steal``) is shard 1/1 with leases: it
  *claims* whole sweep points through atomic lease files, renews its
  claims with heartbeats while computing, and **steals** points whose
  leases expire -- so a slow host sheds its un-started points to faster
  ones and a killed host's work is picked up automatically.

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
differs from it is refused.  A writer records each point it settles once,
in its manifest's per-point outcome map; the counts in the manifest and
in the :class:`WriterResult` it returns are read off that map.

Reading is single, too: :class:`RunDirectory` is the only code that knows
the layout and the only judge of a checkpoint.  It lives here because this
module already holds or imports everything it reads -- leases, plan
header, worker manifests, and :mod:`~repro.harness.distributed`'s
checkpoints -- so nothing imports backwards to reach it.
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
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from .aggregate import RunSummary, SummaryReducer
from .distributed import (
    MANIFEST_VERSION,
    ManifestError,
    ShardError,
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


@dataclass
class WriterResult:
    """What one writer invocation did, read off its per-point outcome map.

    ``points`` is the map the writer's manifest records: each settled
    point's ``label``, ``outcome`` and ``runs``, by point index.  The
    outcomes are ``executed`` (computed from a fresh claim), ``stolen``
    (computed from an expired lease taken over), ``already-done`` (a valid
    checkpoint of this shard's was there first), ``not-mine`` (a static
    shard owns no run of it), ``left-behind`` (not done when the writer
    exited: leased by a live worker -- its checkpoint unusable, or missing
    -- or out of ``max_points``) and ``lost`` (computed here, but a thief
    checkpointed it first, possible only after this worker stalled past
    its TTL).  Every label list and run count is read off that map, the
    lists in plan order.
    """

    worker: str
    shard: ShardSpec
    out_dir: Path
    manifest: Path
    points: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def entries(self, *outcomes: str) -> List[Dict[str, Any]]:
        """The entries of the points settled with any of ``outcomes``, in plan order.

        ``sorted`` copies the map in one step, so a heartbeat thread may
        read it while the claim loop settles a point.
        """
        return [entry for _, entry in sorted(self.points.items()) if entry["outcome"] in outcomes]

    def labels(self, *outcomes: str) -> List[str]:
        """The labels of the points settled with any of ``outcomes``, in plan order."""
        return [entry["label"] for entry in self.entries(*outcomes)]

    def runs(self, *outcomes: str) -> int:
        """How many runs the points settled with any of ``outcomes`` hold."""
        return sum(entry["runs"] for entry in self.entries(*outcomes))

    executed = property(lambda self: self.labels("executed"))
    stolen = property(lambda self: self.labels("stolen"))
    #: Every label this writer computed and checkpointed, claimed or stolen.
    computed = property(lambda self: self.labels("executed", "stolen"))
    already_done = property(lambda self: self.labels("already-done"))
    not_mine = property(lambda self: self.labels("not-mine"))
    left_behind = property(lambda self: self.labels("left-behind"))
    lost = property(lambda self: self.labels("lost"))
    runs_executed = property(lambda self: self.runs("executed", "stolen"))
    runs_reused = property(lambda self: self.runs("already-done"))

    def counts(self) -> Dict[str, int]:
        """The point and run counts a worker manifest holds next to ``points``."""
        return {
            "points_computed": len(self.computed),
            "points_stolen": len(self.stolen),
            "points_lost": len(self.lost),
            "runs_executed": self.runs_executed,
            "runs_reused": self.runs_reused,
        }


class SweepWriter:
    """One writer of a run directory: its claim loop, checkpoints and manifest.

    A writer is one shard of the header's covering under one name.  Given
    ``shard``, it is that static shard: named ``shard-IofK``, it holds no
    leases, so its first pass claims every point it owns runs of, each
    claim succeeds, :meth:`hold` starts no heartbeat and nothing is left
    for the steal pass (``worker`` and the lease options do not apply).
    Without ``shard`` it is a work-stealing worker, shard 1/1 with leases:
    the first pass claims never-leased points, scanning from a
    worker-specific rotation offset so concurrent workers mostly avoid
    colliding; the steal pass repeatedly steals points whose leases have
    expired, until every point is settled or everything left is
    live-leased by someone else -- then it exits (re-run it, or any other
    worker, to pick up later orphans) or, with ``wait=True``, idles,
    re-polling every ``poll_interval`` seconds until the holders
    checkpoint the points or their leases expire.

    Either way the writer resumes its shard's valid checkpoints, writes its
    own, and keeps one manifest, ``worker-<name>.json``, rewritten after
    every point it computes or resumes, so a killed invocation leaves a
    resumable prefix.  Each settled point's outcome is recorded once, in
    :attr:`result`'s ``points``.
    """

    def __init__(
        self,
        plan: SweepPlan,
        out_dir: Union[str, Path],
        worker: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_points: Optional[int] = None,
        wait: bool = False,
        poll_interval: Optional[float] = None,
        shard: Optional[ShardSpec] = None,
    ) -> None:
        if max_points is not None and max_points < 1:
            raise LeaseError(f"max_points must be >= 1, got {max_points}")
        #: The lease TTL in seconds; ``None`` for a static shard.
        self.ttl: Optional[float] = None
        if shard is None:
            _check_seconds("lease ttl", lease_ttl)
            if poll_interval is not None:
                _check_seconds("poll interval", poll_interval)
            worker = sanitize_worker_name(worker) if worker is not None else default_worker_name()
            if _STATIC_SHARD_NAME_RE.fullmatch(worker):
                raise LeaseError(
                    f"worker name {worker!r} is reserved: names of the form shard-IofK "
                    f"(shard-\\d+of\\d+) belong to --shard i/k writers, whose manifest "
                    f"worker-{worker}.json a --steal worker of that name would overwrite"
                )
            self.ttl = float(lease_ttl)
        else:
            worker = f"shard-{shard.index}of{shard.count}"
        self.plan = plan
        self.out = Path(out_dir)
        self.worker = worker
        self.shard = shard or _WHOLE
        self.max_points = max_points
        self.wait = wait
        #: Default idle re-poll cadence tracks the heartbeat cadence: there
        #: is nothing new to observe between two renewals of a live lease.
        self.poll_interval = (
            float(poll_interval) if poll_interval is not None else max(lease_ttl / 4.0, 0.01)
        )
        self.telemetry = Telemetry()
        self.result = WriterResult(
            worker=worker,
            shard=self.shard,
            out_dir=self.out,
            manifest=worker_manifest_path(self.out, worker),
        )
        self._fingerprint = plan.fingerprint()
        #: Points whose unusable checkpoint this invocation has warned about.
        self._warned: Set[int] = set()

    def run(self, max_workers: Optional[int] = None) -> WriterResult:
        """Run the claim loop to completion and report what this writer did.

        ``max_workers`` below 1 is refused before the directory is touched.
        Then the plan header is created or validated, and each claimed task
        executes under :meth:`hold` and is handed to :meth:`complete`.  For
        the whole loop, every pass of the cyclic collector is recorded under
        the writer's ``gc_seconds`` timer.
        """
        from .parallel import plan_pool

        if max_workers is not None and max_workers < 1:
            raise ShardError(f"max_workers must be >= 1, got {max_workers}")
        write_plan_header(self.out, self.plan, self.shard.count)
        if self.ttl is not None:
            lease_dir(self.out).mkdir(exist_ok=True)
        with self.telemetry.time_collector(), plan_pool(self.plan, max_workers):
            for task in self.claims():
                with self.hold(task):
                    summaries = execute_point(self.plan, task, max_workers)
                self.complete(task, summaries)
        self._write_manifest()
        return self.result

    # ------------------------------------------------------------- claiming
    def claims(self) -> Iterator[PointTask]:
        """Yield claimed tasks: a pass of fresh claims, then steals of expired leases."""
        for point_index in self._rotation():
            if self._exhausted():
                break
            if not self._settled(point_index):
                task = self._claim(point_index)
                if task is not None:
                    yield task
        pending = self._outstanding()
        while pending and not self._exhausted():
            progressed = False
            for point_index in pending:
                if self._exhausted():
                    break
                if not self._settled(point_index):
                    task = self._claim(point_index, steal=True)
                    if task is not None:
                        progressed = True
                        yield task
            pending = self._outstanding()
            if pending and not progressed:
                if not self.wait:
                    break
                # Everything left is live-leased by other workers.  Idle
                # instead of exiting: their checkpoints will settle the
                # points, or their leases will expire and become ours.
                self.telemetry.inc("idle_polls")
                time.sleep(self.poll_interval)
        for point_index in self._outstanding():
            self._record(point_index, "left-behind", 0)

    def _claim(self, point_index: int, steal: bool = False) -> Optional[PointTask]:
        """Claim one point, or ``None`` when another worker holds it.

        Without leases every claim succeeds.  A fresh claim creates lease
        generation 0; ``steal`` also takes over the point's expired lease.
        """
        if self.ttl is None:
            return self._task(point_index)
        current = current_lease(self.out, point_index) if steal else None
        if current is None:
            lease = try_claim(self.out, self.plan, point_index, self.worker, self.ttl)
        elif current.expired():
            lease = try_steal(self.out, self.plan, point_index, self.worker, self.ttl, current)
        else:
            return None
        return None if lease is None else self._task(point_index, lease)

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
        """Time the point and, if it is leased, renew the lease from a heartbeat thread.

        Each renewal carries a fresh telemetry snapshot, so the lease file
        doubles as the worker's live metrics feed while it computes.
        """
        stop = threading.Event()

        def beat() -> None:
            """Renew every ``ttl/4`` until stopped, superseded, or the context exits."""
            while not stop.wait(max(self.ttl / 4.0, 0.01)):
                refreshed = renew_lease(task.lease, self._fingerprint, telemetry=self._snapshot())
                if refreshed is None:
                    task.superseded = True
                    return
                task.lease = refreshed

        keeper = None
        if task.lease is not None:
            keeper = threading.Thread(
                target=beat, name=f"lease-keeper-point-{task.point_index}", daemon=True
            )
            keeper.start()
        try:
            with self.telemetry.timer("point_seconds"):
                yield
        finally:
            stop.set()
            if keeper is not None:
                keeper.join(timeout=10.0)

    def complete(self, task: PointTask, summaries: List[RunSummary]) -> None:
        """Checkpoint one computed point, unless a thief beat us to it, and record it."""
        if task.superseded and task.checkpoint.exists():
            # Stolen from us mid-run and the thief finished first.  Its
            # checkpoint is bit-identical to ours, so nothing is wasted but
            # our own time; record the loss and keep going.
            outcome = "lost"
        else:
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
            self.telemetry.set_gauge("last_checkpoint_at", time.time())
            outcome = "executed" if task.lease is None or task.lease.generation == 0 else "stolen"
        self._record(task.point_index, outcome, len(summaries))
        self._write_manifest()

    # ------------------------------------------------------------ internals
    def _rotation(self) -> List[int]:
        """Point indices in claim order: plan order without leases, else from a hash offset.

        Concurrent workers start their scans at different points of the
        plan, so fresh claims mostly avoid fighting over the same lease.
        """
        count = len(self.plan.points)
        offset = 0
        if self.ttl is not None:
            offset = int(hashlib.sha256(self.worker.encode("utf-8")).hexdigest(), 16) % count
        return list(range(offset, count)) + list(range(offset))

    def _exhausted(self) -> bool:
        return (
            self.max_points is not None
            and len(self.result.labels("executed", "stolen", "lost")) >= self.max_points
        )

    def _settled(self, point_index: int) -> bool:
        """Whether this writer is done with ``point_index``, settling it if it can.

        A point this shard owns no run of is ``not-mine``; one holding this
        shard's valid checkpoint is ``already-done``.
        """
        if point_index in self.result.points:
            return True
        if not self.plan.owned_positions(point_index, self.shard):
            self._record(point_index, "not-mine", 0)
            return True
        summaries = self._resume(point_index)
        if summaries is None:
            return False
        self._record(point_index, "already-done", len(summaries))
        self._write_manifest()
        return True

    @cached_property
    def _directory(self) -> RunDirectory:
        """What :meth:`_resume` asks, read once :meth:`run` has written the header."""
        return RunDirectory(self.out)

    def _resume(self, point_index: int) -> Optional[List[RunSummary]]:
        """This shard's checkpoint of a point, read by the directory's judge; a refused one reads as none.

        It warns once per point per invocation: a point whose unusable
        checkpoint sits under another worker's live lease is looked at again
        on every pass.
        """
        try:
            return self._directory.checkpoint(self.shard, point_index)
        except ManifestError as error:
            if point_index not in self._warned:
                self._warned.add(point_index)
                label = self.plan.points[point_index].label
                warnings.warn(f"recomputing point {label!r}: {error}", RuntimeWarning)
            return None

    def _outstanding(self) -> List[int]:
        """Points this writer has not settled, in claim order."""
        return [point_index for point_index in self._rotation() if not self._settled(point_index)]

    def _record(self, point_index: int, outcome: str, runs: int) -> None:
        self.result.points[point_index] = {
            "label": self.plan.points[point_index].label,
            "outcome": outcome,
            "runs": runs,
        }

    def _snapshot(self) -> Dict[str, Any]:
        """The telemetry snapshot, with the result's nonzero counts as counters."""
        snapshot = self.telemetry.snapshot()
        snapshot["counters"].update(
            (name, count) for name, count in self.result.counts().items() if count
        )
        return snapshot

    def _write_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self._fingerprint,
            "worker": self.worker,
            "shard": str(self.shard),
            "points": {str(index): entry for index, entry in sorted(self.result.points.items())},
            **self.result.counts(),
            "telemetry": self._snapshot(),
        }
        _atomic_write_bytes(
            self.result.manifest, json.dumps(seal(payload), indent=2).encode("utf-8")
        )


#: The name ``bench/spans.py`` times :meth:`SweepWriter.complete` under.
WorkStealingScheduler = SweepWriter


def run_work_stealing(
    plan: SweepPlan,
    out_dir: Union[str, Path],
    worker: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_workers: Optional[int] = None,
    max_points: Optional[int] = None,
    wait: bool = False,
    poll_interval: Optional[float] = None,
) -> WriterResult:
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
    writer = SweepWriter(
        plan,
        out_dir,
        worker=worker,
        lease_ttl=lease_ttl,
        max_points=max_points,
        wait=wait,
        poll_interval=poll_interval,
    )
    return writer.run(max_workers)


# ------------------------------------------------------- reading a directory
@dataclass
class StealStatus:
    """Aggregate progress of a run directory, whichever policies wrote it.

    ``done`` counts points whose every owning shard's checkpoint loads,
    ``refused`` those with one that does not (neither done nor pending).
    ``stolen`` counts points whose live lease generation is above zero --
    points that changed hands at least once, completed or not.
    ``orphaned`` are pending points whose lease expired: claimable by the
    next worker.  ``workers`` holds one row per worker manifest found.
    """

    points_total: int
    done: int
    refused: int
    leased: int
    orphaned: int
    unclaimed: int
    stolen: int
    shard_count: int
    runs_total: int
    experiment: Optional[str]
    plan_key: Optional[str]
    workers: List[Dict[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class Verdict:
    """What :meth:`RunDirectory.verdict` judged one point: ``done``, ``pending`` or ``refused``.

    A point lacking a file is ``pending`` (``missing`` names the shards),
    else one with a file the loader refuses is ``refused`` (``path`` and
    ``reason`` name the first, on a pending point too).  ``checkpoints``
    maps each owning shard (``"i/k"``) to whether its file was accepted;
    ``summaries`` holds what loaded (every run, when done).
    """

    state: str
    checkpoints: Dict[str, bool]
    summaries: List[RunSummary]
    missing: List[str]
    path: Optional[Path] = None
    reason: Optional[str] = None


class RunDirectory:
    """One read of a run directory: the only code that knows its layout.

    Everything that consumes a run directory -- the merger, ``status``,
    ``serve``, the CLI, a resuming writer -- asks this class instead of the
    files: what provenance was recorded, whether a checkpoint loads (the
    one judge), each point's :meth:`verdict`, and the point and writer
    rows.  Construction reads the plan header (a malformed, damaged or
    wrong-version one raises here, naming the file); a directory nothing
    has been written to yet reads as ``header is None``.  Leases, manifests,
    verdicts and rows are read once and kept: an instance is one snapshot.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out = Path(out_dir)
        #: The plan header, or ``None`` while nothing has been written.
        self.header: Optional[Dict[str, Any]] = (
            read_plan_header(self.out) if plan_header_path(self.out).is_file() else None
        )
        self._verdicts: Dict[int, Verdict] = {}

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

    # ------------------------------------------------------------- the judge
    def checkpoint(self, shard: ShardSpec, point_index: int) -> Optional[List[RunSummary]]:
        """``shard``'s checkpoint of one point: its summaries, or ``None`` while the file is absent.

        The one caller of ``_load_checkpoint``, which judges the file by the
        plan header alone; a refused file raises :class:`ManifestError`
        naming it.  It reads the file on every call (:meth:`verdict` does not).
        """
        path = checkpoint_path(self.out, shard, point_index)
        if not path.exists():
            return None
        return _load_checkpoint(path, self.recorded(), shard, point_index)

    def verdict(self, point_index: int) -> Verdict:
        """One point, judged once per instance by its owners' checkpoints: pending, refused or done."""
        if point_index not in self._verdicts:
            seeds, count = len(self.recorded()["seeds"]), self.shard_count
            checkpoints, summaries, missing, path, reason = {}, [], [], None, None
            for shard in (ShardSpec(index, count) for index in range(1, count + 1)):
                if owned_positions(seeds, point_index, shard):
                    try:
                        loaded = self.checkpoint(shard, point_index)
                        if loaded is None:
                            missing.append(str(shard))
                    except ManifestError as error:
                        loaded = None
                        if path is None:
                            path, reason = checkpoint_path(self.out, shard, point_index), str(error)
                    checkpoints[str(shard)] = loaded is not None
                    summaries.extend(loaded or ())
            state = "pending" if missing else "refused" if path else "done"
            self._verdicts[point_index] = Verdict(state, checkpoints, summaries, missing, path, reason)
        return self._verdicts[point_index]

    # ------------------------------------------------------------ state rows
    @cached_property
    def leases(self) -> List[Lease]:
        """The live lease of every leased point (see :func:`live_leases`)."""
        return live_leases(self.out)

    @cached_property
    def point_rows(self) -> List[Dict[str, Any]]:
        """Each point's index, label, state, checkpoints and lease.

        ``state`` and ``checkpoints`` are the point's :meth:`verdict`, a row
        with a refused file adding its ``file`` and ``reason``; a ``pending``
        point is ``leased``, ``orphaned`` (lease expired) or ``unclaimed``
        instead, from its live lease.  ``generation`` appears once the point
        has ever been leased, and ``worker`` -- the holder -- while it is
        not done.
        """
        leases = {lease.point_index: lease for lease in self.leases}
        rows = []
        for point_index, label in enumerate(self.recorded()["labels"]):
            verdict, lease = self.verdict(point_index), leases.get(point_index)
            state = verdict.state
            if state == "pending":
                state = "unclaimed" if lease is None else "orphaned" if lease.expired() else "leased"
            row = {"index": point_index, "label": label, "state": state, "checkpoints": verdict.checkpoints}
            if verdict.path is not None:
                row.update(file=verdict.path.name, reason=verdict.reason)
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
            refused=states.count("refused"),
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
