"""The one merger: fold a run directory's checkpoints, as they land or at once.

:class:`IncrementalMerger` is the only fold over a run directory.  Each
:meth:`~IncrementalMerger.poll` reads the directory through
:class:`~repro.harness.coordinator.RunDirectory`, folds every *newly
completed* point and leaves the rest pending, so a live ``/aggregate``
endpoint can report the finished prefix of an hours-long sweep.  The batch
merge (:func:`~repro.harness.distributed.merge_directory`, which
``merge_shards`` and ``merge_stolen`` both name) is the same object polled
once and then asked for :meth:`~IncrementalMerger.merged`; the two differ in
*when* an unfinished directory is refused -- ``merged()`` raises, ``poll()``
waits -- and in nothing else.

**Bit-identity guarantee.** Every point is folded through
:func:`~repro.harness.distributed.fold_point` -- the run-index-ordered fold
single-host :func:`~repro.harness.distributed.run_plan` ends in -- at its
one call site below.  A point's aggregate never depends on any other point,
so the partial aggregates over any completed subset are the batch merge's
aggregates for those points by construction (the tests still sweep k in
{1, 3, 7} over every completed prefix).

The merger neither names nor loads a file: a point is complete when its
:meth:`~repro.harness.coordinator.RunDirectory.verdict` is ``done`` -- every
owning shard's checkpoint loads -- and it folds the summaries that verdict
loaded.  A ``refused`` point, the one ``status`` shows, stays pending here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..harness.aggregate import RunAggregate
from ..harness.coordinator import RunDirectory
from ..harness.distributed import ManifestError, MergedSweep, PlanPoint, SweepPlan, fold_point


class IncrementalMerger:
    """Fold a run directory's per-point checkpoints as they appear.

    Call :meth:`poll` whenever fresher data is wanted (the serve endpoints
    poll on each request); it returns the labels folded *by that call*.
    Folded aggregates accumulate in :attr:`aggregates`; a point that has
    not finished -- or whose checkpoint the judge refuses -- simply stays
    pending until a later poll, and :meth:`merged` says why.  A plan header
    that is malformed, damaged or from a different plan raises
    :class:`~repro.harness.distributed.ManifestError` from ``poll`` itself
    rather than fold.
    """

    def __init__(self, out_dir: Union[str, Path], plan: SweepPlan) -> None:
        self.out = Path(out_dir)
        self.plan = plan
        #: Folded aggregates by point label, in completion order.
        self.aggregates: Dict[str, RunAggregate] = {}
        #: Why each point the latest poll found refused did not fold, in plan order.
        self._refusals: List[str] = []

    # ---------------------------------------------------------------- state
    @property
    def complete(self) -> bool:
        """Whether every point of the plan has been folded."""
        return len(self.aggregates) == len(self.plan.points)

    @property
    def last_error(self) -> Optional[str]:
        """Why the latest poll's first refused point did not fold, naming its file; else ``None``."""
        return self._refusals[0] if self._refusals else None

    def _pending(self) -> List[Tuple[int, PlanPoint]]:
        return [
            (point_index, point)
            for point_index, point in enumerate(self.plan.points)
            if point.label not in self.aggregates
        ]

    def pending(self) -> List[str]:
        """Labels not folded yet, in plan order."""
        return [point.label for _, point in self._pending()]

    def merged(self) -> MergedSweep:
        """The merged sweep; until :attr:`complete`, raises why not: missing shards, then a refused file."""
        directory = RunDirectory(self.out)
        if not self.complete:
            verdicts = [(point.label, directory.verdict(index)) for index, point in self._pending()]
            gaps = [f"{label!r} lacks shard {', '.join(v.missing)}" for label, v in verdicts if v.missing]
            if gaps:
                status = directory.steal_status()
                raise ManifestError(
                    f"run in {self.out} is incomplete: {'; '.join(gaps)} ({status.leased} leased, "
                    f"{status.orphaned} orphaned, {status.unclaimed} unclaimed); resume it by "
                    f"re-running each lacking shard's command (a --steal worker for shard 1/1) "
                    f"before merging"
                )
            raise ManifestError(
                next((verdict.reason for _, verdict in verdicts if verdict.state == "refused"), None)
                or f"run in {self.out} is incomplete: points {self.pending()} have "
                f"not been folded yet; keep polling (or run more workers)"
            )
        return MergedSweep(
            plan=self.plan,
            shard_count=directory.shard_count,
            aggregates={point.label: self.aggregates[point.label] for point in self.plan.points},
        )

    # ----------------------------------------------------------------- poll
    def poll(self) -> List[str]:
        """Fold every pending point whose verdict is ``done``; return their labels."""
        directory = RunDirectory(self.out)
        self._refusals = []
        if directory.header is None:
            return []
        directory.check(self.plan)
        folded: List[str] = []
        for point_index, point in self._pending():
            verdict = directory.verdict(point_index)
            if verdict.state == "refused":
                self._refusals.append(verdict.reason)
            elif verdict.state == "done":
                self.aggregates[point.label] = fold_point(
                    self.plan, point_index, ((summary.index, summary) for summary in verdict.summaries)
                )
                folded.append(point.label)
        return folded
