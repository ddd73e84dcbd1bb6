"""Observability layer for sweeps: telemetry, live serving, incremental merge.

The :mod:`repro.obs` package turns a running sweep into a queryable
workload instead of a batch job:

- :mod:`repro.obs.telemetry` -- a lightweight counters/gauges/timers
  registry sampled by sweep workers; snapshots ride the coordinator's
  existing lease heartbeats and worker manifests.
- :mod:`repro.obs.merge` -- :class:`~repro.obs.merge.IncrementalMerger`,
  which folds per-point checkpoints as they land and guarantees the
  partial aggregate of a completed prefix is bit-identical to
  :func:`~repro.harness.distributed.merge_shards` over the same points.
- :mod:`repro.obs.serve` -- the ``python -m repro serve`` HTTP service
  (``/status``, ``/progress``, ``/workers``, ``/aggregate``) and the
  text renderer shared with ``python -m repro status --watch``.

Structured execution tracing (the JSONL trace schema and the kernel's
``trace_sink`` option) lives with the kernel in :mod:`repro.sim.trace`;
``docs/observability.md`` documents the whole layer.

Like every package here the exports load on first use, so the coordinator
importing :mod:`repro.obs.telemetry` pulls in neither the merger (which
imports the coordinator back) nor ``serve`` and its ``http.server``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "merge": ["IncrementalMerger"],
        "telemetry": ["Telemetry", "merge_snapshots"],
    },
)
