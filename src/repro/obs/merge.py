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

The merger never looks at file names: which checkpoint files hold a point
(one per shard of the header's covering that owns a run of it) is the
reader's answer, and a point is complete when every one of them exists and
``_load_checkpoint`` accepts it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..harness.aggregate import RunAggregate, RunSummary
from ..harness.coordinator import RunDirectory
from ..harness.distributed import (
    ManifestError,
    MergedSweep,
    PlanPoint,
    SweepPlan,
    _load_checkpoint,
    fold_point,
)


class IncrementalMerger:
    """Fold a run directory's per-point checkpoints as they appear.

    Call :meth:`poll` whenever fresher data is wanted (the serve endpoints
    poll on each request); it returns the labels folded *by that call*.
    Folded aggregates accumulate in :attr:`aggregates`; a point that has
    not finished -- or whose checkpoint is momentarily unreadable -- simply
    stays pending until a later poll, and :meth:`merged` says why.
    A plan header that is malformed, damaged or from a different plan
    raises :class:`~repro.harness.distributed.ManifestError`
    from ``poll`` itself rather than fold.
    """

    def __init__(self, out_dir: Union[str, Path], plan: SweepPlan) -> None:
        self.out = Path(out_dir)
        self.plan = plan
        #: Folded aggregates by point label, in completion order.
        self.aggregates: Dict[str, RunAggregate] = {}
        #: Why each loadable-looking pending point did not fold (a corrupt
        #: or torn checkpoint leaves its point pending rather than raising).
        self._errors: Dict[str, ManifestError] = {}

    # ---------------------------------------------------------------- state
    @property
    def complete(self) -> bool:
        """Whether every point of the plan has been folded."""
        return len(self.aggregates) == len(self.plan.points)

    @property
    def last_error(self) -> Optional[str]:
        """The latest per-point load failure still standing, for diagnostics."""
        return str(next(reversed(self._errors.values()))) if self._errors else None

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
        """The fully merged sweep; until :attr:`complete`, raises what is missing.

        The reader's refusal comes first (nothing written, a point lacking a
        shard's checkpoint), then the load error of a checkpoint that exists
        but cannot be used.
        """
        directory = RunDirectory(self.out)
        if not self.complete:
            directory.refuse([point_index for point_index, _ in self._pending()])
            raise next(iter(self._errors.values()), None) or ManifestError(
                f"run in {self.out} is incomplete: points {self.pending()} have "
                f"not been folded yet; keep polling (or run more workers)"
            )
        return MergedSweep(
            plan=self.plan,
            shard_count=directory.shard_count,
            aggregates={point.label: self.aggregates[point.label] for point in self.plan.points},
        )

    # ----------------------------------------------------------------- poll
    def poll(self) -> List[str]:
        """Fold every newly completed point; return their labels."""
        directory = RunDirectory(self.out)
        if directory.header is None:
            return []
        directory.check(self.plan)
        folded: List[str] = []
        for point_index, point in self._pending():
            sources = directory.sources(point_index)
            if not all(path.exists() for _, path in sources):
                continue
            summaries: List[RunSummary] = []
            try:
                for shard, path in sources:
                    summaries.extend(_load_checkpoint(path, self.plan, shard, point_index))
            except ManifestError as error:
                self._errors[point.label] = error
                continue
            self.aggregates[point.label] = fold_point(
                self.plan, point_index, ((summary.index, summary) for summary in summaries)
            )
            self._errors.pop(point.label, None)
            folded.append(point.label)
        return folded
