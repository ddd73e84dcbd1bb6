"""Plain-text reporting of experiment results (paper-style tables)."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence


def _format_cell(value: Any, precision: int = 2) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_records(
    records: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render a list of dictionaries (e.g. sweep rows) as a table."""
    if not records:
        return title or "(no rows)"
    if columns is None:
        columns = list(records[0].keys())
    rows = [[record.get(column, "") for column in columns] for record in records]
    return format_table(columns, rows, precision=precision, title=title)


#: Metrics shown first (when present) by :func:`format_aggregates`.
PREFERRED_METRICS = ("rounds_max", "messages_sent", "sm_ops", "decision_time_max")


def format_aggregates(
    label_to_aggregate: Mapping[str, Any],
    metrics: Optional[Sequence[str]] = None,
    precision: int = 2,
    title: Optional[str] = None,
    ci: bool = False,
) -> str:
    """Render aggregates as a table, one row per label.

    When ``metrics`` is omitted, the columns are the :data:`PREFERRED_METRICS`
    that every aggregate actually carries -- the right default for showing a
    merged sweep without knowing which experiment produced it.
    """
    if metrics is None:
        names = [set(aggregate.metric_names()) for aggregate in label_to_aggregate.values()]
        common = set.intersection(*names) if names else set()
        metrics = [metric for metric in PREFERRED_METRICS if metric in common]
    return format_records(
        aggregate_records(label_to_aggregate, metrics, ci=ci), precision=precision, title=title
    )


def aggregate_records(
    label_to_aggregate: Mapping[str, Any],
    metrics: Sequence[str],
    ci: bool = False,
) -> List[Dict[str, Any]]:
    """Report rows straight from :class:`~repro.harness.aggregate.RunAggregate`.

    One record per label with the run count, the termination rate and the
    mean of each requested metric; with ``ci`` each metric also gets a
    ``<metric>_ci95`` column (the half-width of the mean's 95% interval).
    """
    records = []
    for label, aggregate in label_to_aggregate.items():
        record: Dict[str, Any] = {
            "label": label,
            "runs": len(aggregate),
            "termination_rate": aggregate.termination_rate(),
        }
        for metric in metrics:
            stats = aggregate.summary(metric)
            record[metric] = stats.mean
            if ci:
                record[f"{metric}_ci95"] = stats.ci95_half_width
        records.append(record)
    return records
