"""Experiment harness: runners, metrics, sweeps, statistics and reporting."""

import sys
from importlib import import_module

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "aggregate": [
            "SKETCH_CAPACITY", "Reducer", "RunAggregate", "RunSummary", "StreamingStats",
            "SummaryReducer", "run_priority",
        ],
        "coordinator": [
            "DEFAULT_LEASE_TTL", "Lease", "LeaseError", "StealRunResult", "StealStatus",
            "merge_stolen", "run_work_stealing", "steal_status",
        ],
        "distributed": [
            "MANIFEST_VERSION", "ManifestError", "MergedSweep", "PlanPoint", "ShardError",
            "ShardRunResult", "ShardSpec", "SweepPlan", "merge_shards", "plan_grid",
            "plan_repeat", "plan_sweep", "read_manifests", "run_plan", "run_shard",
        ],
        "metrics": ["PHASES_PER_ROUND", "RunMetrics", "collect_metrics", "numeric_metric_values"],
        "parallel": [
            "WORKERS_ENV_VAR", "available_cpus", "default_chunksize", "default_workers",
            "resolve_workers", "run_many", "worker_pool",
        ],
        "report": [
            "aggregate_records", "comparison_rows", "format_records", "format_series",
            "format_table",
        ],
        "runner": [
            "ALGORITHMS", "ExperimentConfig", "RunResult", "run_consensus", "run_seeds",
            "termination_expected",
        ],
        "stats": [
            "SummaryStats", "ci95_half_width", "geometric_mean", "mean", "median", "percentile",
            "proportion", "sample_std", "summarize",
        ],
        "sweep": [
            "SweepPoint", "SweepResult", "grid", "grid_points", "repeat", "sweep",
            "variation_points",
        ],
        "workloads": [
            "PROPOSAL_PATTERNS", "crash_scenarios", "resolve_proposals", "standard_topologies",
        ],
    },
)


class _Harness(type(sys)):
    """Keeps ``harness.sweep`` the function, as it was under eager imports.

    The import system rebinds a package attribute to the submodule of the
    same name whenever that submodule loads; a property outranks both that
    assignment and the module ``__getattr__``.
    """

    @property
    def sweep(self):
        """:func:`repro.harness.sweep.sweep`, not the module that defines it."""
        return import_module(f"{__name__}.sweep").sweep

    @sweep.setter
    def sweep(self, _submodule):
        pass


sys.modules[__name__].__class__ = _Harness
