"""Shared plumbing for the experiment drivers E1–E11 and E8L.

Each driver module is a plan and a report:

* ``plan(...) -> SweepPlan`` — the deterministic enumeration of every run
  the experiment performs (pure data, runs nothing).  Because it is a
  :class:`~repro.harness.distributed.SweepPlan`, any experiment can be
  split over machines with ``python -m repro run <exp> --shard i/k``.
* ``build_report(plan, aggregates) -> ExperimentReport`` — turns the
  per-point :class:`~repro.harness.aggregate.RunAggregate` objects (from a
  local execution or a shard merge) into the experiment's report.

plus its ``PAPER_CLAIM``; a driver that sweeps named fault scenarios also
exports ``SCENARIOS``, the names ``python -m repro run <exp> --scenario``
accepts.  :func:`run_planned` is the one single-host executor: the CLI,
the benchmark files and the tests all run a driver as
``run_planned(driver.plan(...), driver.build_report)``.
``docs/experiments.md`` records the paper claim next to a sample
invocation for each experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..harness.distributed import SweepPlan, run_plan
from ..harness.report import format_records


@dataclass
class ExperimentReport:
    """A uniform container for experiment outcomes."""

    experiment_id: str
    title: str
    paper_claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    passed: Optional[bool] = None

    def add_row(self, **fields: Any) -> None:
        """Append one result row (column name -> value)."""
        self.rows.append(dict(fields))

    def add_note(self, note: str) -> None:
        """Append a free-form note printed below the result table."""
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column across the rows."""
        return [row.get(name) for row in self.rows]

    def row_where(self, **criteria: Any) -> Dict[str, Any]:
        """The first row matching all the given column values."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                return row
        raise KeyError(f"no row matching {criteria!r}")

    def format(self, precision: int = 2) -> str:
        """The printable report: title, claim, rows, notes and verdict."""
        lines = [f"=== {self.experiment_id}: {self.title} ===", f"Paper claim: {self.paper_claim}"]
        if self.rows:
            lines.append(format_records(self.rows, precision=precision))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.passed is not None:
            lines.append(f"reproduction check: {'PASSED' if self.passed else 'FAILED'}")
        return "\n".join(lines)


def default_seeds(count: int, base: int = 1000) -> List[int]:
    """A deterministic list of ``count`` distinct seeds."""
    return [base + index for index in range(count)]


def run_planned(
    plan: SweepPlan,
    build_report: Callable[[SweepPlan, Dict[str, Any]], ExperimentReport],
    max_workers: Optional[int] = None,
    exec_mode: Optional[str] = None,
) -> ExperimentReport:
    """Execute ``plan`` on this host and build its report.

    Executing the same plan as shards and merging them yields bit-identical
    aggregates, so ``build_report`` produces the identical report either way; likewise
    ``exec_mode`` (process pool vs cooperative multi-kernel hosting, see
    :func:`~repro.harness.parallel.run_many`) only changes how the runs are
    hosted, never what they compute.
    """
    return build_report(plan, run_plan(plan, max_workers=max_workers, exec_mode=exec_mode))
