"""Experiment harness: runners, metrics, sweep plans, statistics and reporting."""

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
            "ShardRunResult", "ShardSpec", "SweepPlan", "grid_points", "merge_shards",
            "plan_grid", "plan_repeat", "plan_sweep", "run_plan", "run_shard",
            "variation_points",
        ],
        "metrics": ["RunMetrics", "collect_metrics", "numeric_metric_values"],
        "parallel": [
            "WORKERS_ENV_VAR", "available_cpus", "default_chunksize", "default_workers",
            "resolve_workers", "run_many", "worker_pool",
        ],
        "report": ["aggregate_records", "format_records", "format_table"],
        "runner": [
            "ALGORITHMS", "ExperimentConfig", "RunResult", "run_consensus", "termination_expected",
        ],
        "stats": [
            "SummaryStats", "ci95_half_width", "mean", "median", "percentile", "sample_std",
            "summarize",
        ],
        "workloads": [
            "PROPOSAL_PATTERNS", "crash_scenarios", "resolve_proposals", "standard_topologies",
        ],
    },
)
