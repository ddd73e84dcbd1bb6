"""The ``python -m repro`` command line: run, shard, steal and merge experiments.

Four subcommands, designed so one sweep can span several machines with no
coordination beyond a shared (or later collected) output directory::

    python -m repro list                     # what experiments exist
    python -m repro run e8                   # single host: run + print report
    python -m repro run e8 --shard 2/4 --out runs/   # this host's fixed quarter
    python -m repro run e8 --steal --out runs/       # dynamic: claim and steal
    python -m repro status runs/             # progress at a glance
    python -m repro status runs/ --watch 5   # live terminal view
    python -m repro serve --out runs/        # live HTTP view (JSON + HTML)
    python -m repro merge runs/ --report     # fold the directory, print report

``run --shard`` splits the sweep statically (round-robin by run index) and
writes one checkpoint per completed sweep point, so a killed shard re-invoked
with the same command resumes instead of restarting.  ``run --steal`` replaces
the fixed split with the work-stealing coordinator: each worker claims
un-started sweep points via atomic leases in the shared directory and steals
points whose leases expire, so a slow or dead host sheds its unfinished work
(see ``docs/distributed.md``).  Either way, every host must build the same
plan, which is why ``run`` exposes the experiment name and the seed count
only -- both map deterministically to the plan; the seed list itself travels
in the on-disk artifacts, so ``merge`` and ``status`` need nothing but the
directory.

Every invocation is a fresh interpreter, so this module imports per
subcommand.  The top level holds what every command needs and what costs
nothing to hold: the plan, manifest and lease layer, none of which imports
the simulator.  ``run eN`` then loads driver N (and, through it, the
simulator), ``merge`` the driver the directory recorded, ``status`` no
driver at all; scenario registries, the search, the delay fitter and the
HTTP server load inside the commands that use them.  A new top-level import
here is a cost every command pays; ``tests/test_startup_imports.py`` holds
each command's import graph.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import List, Optional, Sequence

from .experiments import ALL_EXPERIMENTS
from .experiments.common import default_seeds, run_planned
from .harness.coordinator import DEFAULT_LEASE_TTL, RunDirectory, run_work_stealing
from .harness.distributed import ShardError, ShardSpec, merge_directory, run_shard
from .harness.report import format_aggregates, format_records


def _resolve_experiment(name: str):
    """Map a CLI experiment name (``e1``/``E1``) to its driver module."""
    module = ALL_EXPERIMENTS.get(name.upper())
    if module is None:
        choices = ", ".join(sorted(key.lower() for key in ALL_EXPERIMENTS))
        raise ShardError(f"unknown experiment {name!r}; choose from: {choices}")
    return module


def _build_plan(
    experiment: str,
    seed_count: Optional[int],
    seeds: Optional[List[int]] = None,
    scenarios: Optional[Sequence[str]] = None,
    require_scenarios: bool = True,
):
    """Build the named experiment's plan, forwarding a scenario restriction.

    ``scenarios`` is forwarded to drivers whose ``plan`` accepts it (e9).
    With ``require_scenarios`` a restriction the driver cannot honour is an
    error; without it (the merge path, which replays whatever the manifests
    recorded) it is silently ignored.
    """
    module = _resolve_experiment(experiment)
    if seeds is None and seed_count is not None:
        seeds = default_seeds(seed_count)
    kwargs = {"seeds": seeds}
    if scenarios is not None:
        if "scenarios" in inspect.signature(module.plan).parameters:
            kwargs["scenarios"] = tuple(scenarios)
        elif require_scenarios:
            raise ShardError(
                f"experiment {experiment!r} does not take --scenario "
                f"(only e9, e10 and e11 sweep fault scenarios)"
            )
    return module, module.plan(**kwargs)


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for key in sorted(ALL_EXPERIMENTS):
        module = ALL_EXPERIMENTS[key]
        summary = (module.__doc__ or "").strip().splitlines()[0]
        rows.append({"experiment": key.lower(), "summary": summary})
    print(format_records(rows))
    print()
    print("run one with:   python -m repro run <experiment> [--seeds N]")
    print("shard one with: python -m repro run <experiment> --shard I/K --out DIR")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = None
    if args.scenario is not None:
        # Each scenario-aware experiment validates against its own registry:
        # e10 the adaptive strategies, e11 the resilience schedules, e9 the
        # declarative library.
        experiment = args.experiment.upper()
        if experiment == "E10":
            from .adversary.adaptive import adaptive_scenario_names as known_names
        elif experiment == "E11":
            from .experiments.e11_resilience import resilience_scenario_names as known_names
        else:
            from .adversary.library import scenario_names as known_names
        known = known_names()
        if args.scenario not in known:
            raise ShardError(
                f"unknown scenario {args.scenario!r} for {args.experiment}; "
                "choose from: " + ", ".join(known)
            )
        scenarios = (args.scenario,)
    module, plan = _build_plan(args.experiment, args.seeds, scenarios=scenarios)
    if args.steal and args.shard is not None:
        raise ShardError(
            "--steal and --shard are mutually exclusive: a directory is scheduled "
            "either dynamically (leases) or statically (round-robin), never both"
        )
    if not args.steal and (
        args.worker is not None
        or args.lease_ttl is not None
        or args.max_points is not None
        or args.wait
        or args.poll_interval is not None
    ):
        raise ShardError(
            "--worker, --lease-ttl, --max-points, --wait and --poll-interval "
            "only apply with --steal"
        )
    if args.poll_interval is not None and not args.wait:
        raise ShardError("--poll-interval only applies with --wait")
    if args.steal:
        if args.out is None:
            raise ShardError("--steal needs --out DIR to hold the leases and checkpoints")
        result = run_work_stealing(
            plan,
            args.out,
            worker=args.worker,
            lease_ttl=DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl,
            max_workers=args.max_workers,
            max_points=args.max_points,
            exec_mode=args.exec_mode,
            wait=args.wait,
            poll_interval=args.poll_interval,
        )
        print(
            f"worker {result.worker} of {plan.key}: "
            f"{len(result.computed)} points computed ({result.runs_executed} runs), "
            f"{len(result.stolen)} stolen, {len(result.already_done)} already done"
        )
        for label in result.executed:
            print(f"  computed  {label}")
        for label in result.stolen:
            print(f"  stolen    {label}")
        for label in result.already_done:
            print(f"  done      {label}")
        for label in result.lost:
            print(f"  lost      {label}  (a thief checkpointed it first)")
        for label in result.left_behind:
            print(f"  left      {label}  (leased by a live worker, or out of --max-points)")
        print(f"worker manifest: {result.manifest}")
        print(f"progress:  python -m repro status {result.out_dir}")
        print(f"when every point is done:  python -m repro merge {result.out_dir} --report")
        return 0
    if args.shard is not None and args.out is None:
        raise ShardError("--shard needs --out DIR to hold the manifest and checkpoints")
    if args.out is not None:
        shard = ShardSpec.parse(args.shard) if args.shard is not None else ShardSpec(1, 1)
        result = run_shard(
            plan, shard, args.out, max_workers=args.max_workers, exec_mode=args.exec_mode
        )
        done = result.runs_executed + result.runs_resumed
        print(f"shard {shard} of {plan.key}: {done} runs "
              f"({result.runs_executed} executed, {result.runs_resumed} resumed from checkpoints)")
        for label in result.executed:
            print(f"  computed  {label}")
        for label in result.resumed:
            print(f"  resumed   {label}")
        for label in result.skipped:
            print(f"  not-mine  {label}")
        print(f"manifest: {result.manifest}")
        print(f"when all {shard.count} shards are done:  python -m repro merge {result.out_dir} --report")
        return 0
    report = run_planned(
        plan, module.build_report, max_workers=args.max_workers, exec_mode=args.exec_mode
    )
    print(report.format())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .harness.runner import ALGORITHMS
    from .search import SearchSpec, replay_token, search

    if args.replay is not None:
        try:
            result = replay_token(args.replay)
        except ValueError as error:
            # Malformed tokens (and unknown algorithms inside them) follow
            # the CLI's error convention instead of escaping as tracebacks.
            print(f"error: {error}", file=sys.stderr)
            return 2
        if result.violation is not None:
            print(f"VIOLATION reproduced by {args.replay}")
            print(f"  {result.violation}")
            return 1
        print(f"schedule {args.replay} ran clean (no safety violation)")
        return 0
    if args.algorithm == "all":
        algorithms = list(ALGORITHMS)
    else:
        algorithms = [args.algorithm]
    per_algorithm = (
        None if args.time_budget is None else args.time_budget / max(1, len(algorithms))
    )
    exit_code = 0
    for algorithm in algorithms:
        try:
            spec = SearchSpec(algorithm=algorithm, n=args.n, seed=args.seed)
            outcome = search(
                spec,
                budget=args.budget,
                fanout_cap=args.fanout,
                max_decisions=args.max_decisions,
                wall_budget=per_algorithm,
            )
        except ValueError as error:
            # Unknown algorithms and out-of-range bounds follow the CLI's
            # error convention instead of escaping as tracebacks.
            print(f"error: {error}", file=sys.stderr)
            return 2
        if outcome.found:
            exit_code = 1
            print(f"{algorithm}: VIOLATION after {outcome.runs} schedules")
            print(f"  {outcome.violation}")
            print(f"  replay token: {outcome.token}")
            print(f"  reproduce:    python -m repro search --replay '{outcome.token}'")
        else:
            state = "space exhausted" if outcome.exhausted else "budget spent"
            print(f"{algorithm}: no violation in {outcome.runs} schedules ({state})")
    return exit_code


def _cmd_fit_delays(args: argparse.Namespace) -> int:
    from .network.empirical import fit_delay_model, load_rtt_samples

    try:
        samples = load_rtt_samples(args.dataset)
        model = fit_delay_model(
            samples,
            kind=args.model,
            resolution=args.resolution,
            unit_mean=args.unit_mean,
        )
    except ValueError as error:
        # Unreadable datasets and bad fit parameters follow the CLI's error
        # convention instead of escaping as tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"# fit from {len(samples)} samples in {args.dataset}"
          + (" (normalised to unit mean)" if args.unit_mean else ""))
    print(f"# describe: {model.describe()}")
    print(repr(model))
    return 0


def _plan_from_artifacts(out_dir: str):
    """Rebuild ``(module, plan)`` from a directory's recorded provenance.

    Raises :class:`ShardError` when the artifacts were not produced by the
    CLI (no experiment name recorded), since the plan cannot be rebuilt.
    """
    recorded = RunDirectory(out_dir).recorded()
    experiment = recorded.get("experiment")
    if not experiment:
        raise ShardError(
            f"artifacts in {out_dir} were not produced by the CLI (no experiment "
            f"recorded); merge them with repro.harness.distributed.merge_directory "
            f"and the plan that produced them"
        )
    return _build_plan(
        experiment,
        None,
        seeds=list(recorded["seeds"]),
        scenarios=recorded.get("scenarios"),
        require_scenarios=False,
    )


def _cmd_merge(args: argparse.Namespace) -> int:
    module, plan = _plan_from_artifacts(args.out_dir)
    merged = merge_directory(args.out_dir, plan)
    if args.report:
        print(module.build_report(merged.plan, merged.aggregates).format())
        return 0
    print(
        format_aggregates(
            merged.aggregates,
            title=f"{plan.key}: {merged.shard_count} {merged.unit}(s), "
            f"{plan.total_runs} runs over {len(plan.points)} points",
        )
    )
    print()
    print(f"full experiment report:  python -m repro merge {args.out_dir} --report")
    return 0


def _telemetry_cell(snapshot: dict) -> str:
    """One compact table cell from a worker's telemetry snapshot.

    The full snapshot (every counter, gauge and timer) is on the
    ``/workers`` endpoint of ``python -m repro serve``; the table keeps
    the load-bearing digest: busy time, collector time, idleness,
    snapshot age.
    """
    parts = []
    timers = snapshot.get("timers") or {}
    timer = timers.get("point_seconds")
    if timer:
        parts.append(f"busy {timer['total']:.2f}s/{int(timer['count'])}pt")
    timer = timers.get("gc_seconds")
    if timer:
        parts.append(f"gc {timer['total']:.2f}s/{int(timer['count'])}")
    idle = (snapshot.get("counters") or {}).get("idle_polls")
    if idle:
        parts.append(f"{int(idle)} idle polls")
    stamp = snapshot.get("sampled_at")
    if stamp:
        parts.append(f"sampled {max(time.time() - stamp, 0.0):.0f}s ago")
    return ", ".join(parts) or "-"


def _cmd_status(args: argparse.Namespace) -> int:
    if args.watch is not None:
        if args.watch <= 0:
            raise ShardError(f"--watch interval must be positive, got {args.watch:g}")
        from .obs.serve import watch_status

        try:
            watch_status(args.out_dir, args.watch)
        except KeyboardInterrupt:
            pass
        return 0
    directory = RunDirectory(args.out_dir)
    recorded = directory.recorded()
    if directory.layout == "steal":
        status = directory.steal_status()
        print(
            f"{status.experiment or status.plan_key or '?'}: "
            f"{status.done}/{status.points_total} points done "
            f"({status.stolen} stolen), {status.leased} leased, "
            f"{status.orphaned} orphaned, {status.unclaimed} unclaimed"
        )
        if status.workers:
            rows = []
            for row in status.workers:
                row = dict(row)
                telemetry = row.pop("telemetry", None)
                if isinstance(telemetry, dict):
                    row["telemetry"] = _telemetry_cell(telemetry)
                rows.append(row)
            print()
            print(format_records(rows))
        return 0
    rows = [
        {
            "shard": row["shard"],
            "experiment": recorded.get("experiment") or recorded.get("plan_key", "?"),
            "points_done": f"{row['points_done']}/{row['points_total']}",
            "runs_done": f"{row['runs_done']}/{row['runs_total']}",
        }
        for row in directory.shard_rows
    ]
    print(format_records(rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.serve import make_server

    try:
        _, plan = _plan_from_artifacts(args.out)
    except ShardError:
        # Serving is read-only and mostly plan-free: without a rebuildable
        # plan (foreign artifacts, or a directory the workers have not
        # started yet) only /aggregate degrades, reporting the gap as JSON.
        plan = None
    server = make_server(args.out, plan, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving sweep {args.out} at http://{host}:{port}/  (Ctrl-C to stop)")
    print("endpoints: /status /progress /workers /aggregate")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, shard, resume and merge the experiments E1-E11, "
        "search the schedule space for safety violations, or fit delay "
        "models from measured RTT data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the available experiments").set_defaults(func=_cmd_list)

    run_parser = commands.add_parser("run", help="run one experiment, whole or as one shard")
    run_parser.add_argument("experiment", help="experiment name, e.g. e1 or E8")
    run_parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="number of repetitions per sweep point (default: the experiment's own default)",
    )
    run_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="restrict e9/e10/e11 to one fault scenario from the experiment's "
        "registry (e.g. lossy-links for e9, delay-pivotal for e10, "
        "kill-during-recovery for e11)",
    )
    run_parser.add_argument(
        "--shard", default=None, metavar="I/K",
        help="execute only shard I of K (1-based, static round-robin); every host must "
        "use the same experiment and --seeds",
    )
    run_parser.add_argument(
        "--steal", action="store_true",
        help="dynamic scheduling instead of --shard: claim un-started sweep points via "
        "atomic leases in --out and steal points whose leases expire, so slow or dead "
        "workers shed their unfinished work; any number of workers may share DIR",
    )
    run_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for manifests, leases and per-point checkpoints (required with "
        "--shard/--steal; re-running with the same DIR resumes from the checkpoints)",
    )
    run_parser.add_argument(
        "--worker", default=None, metavar="NAME",
        help="worker identity for --steal lease files (default: <hostname>-<pid>)",
    )
    run_parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help=f"--steal only: how long a silent worker's lease lasts before any other "
        f"worker may steal the point (default {DEFAULT_LEASE_TTL:g}s; leases are "
        f"renewed by heartbeat every TTL/4 while a point is computing)",
    )
    run_parser.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="--steal only: compute at most N sweep points in this invocation "
        "(a bounded work grant), then exit",
    )
    run_parser.add_argument(
        "--wait", action="store_true",
        help="--steal only: when everything left is live-leased by other workers, "
        "idle and re-poll instead of exiting, so this worker picks up points as "
        "they free up (checkpoint landed elsewhere, or lease expired)",
    )
    run_parser.add_argument(
        "--poll-interval", type=float, default=None, metavar="SECONDS",
        help="--wait only: how often an idle worker re-scans the directory "
        "(default: lease TTL / 4, matching the heartbeat cadence)",
    )
    run_parser.add_argument(
        "--max-workers", type=int, default=None, metavar="W",
        help="parallel worker processes on this host (default: usable CPUs); with "
        "--exec-mode coop, how many kernels are co-hosted at once instead",
    )
    run_parser.add_argument(
        "--exec-mode", default=None, choices=["process", "coop", "auto"],
        help="execution engine: 'process' fans runs over a process pool, 'coop' hosts "
        "them as cooperatively interleaved kernels in this process (bit-identical "
        "results, no pickling or worker start-up; best for very large n), 'auto' "
        "picks coop for single-worker hosts or n >= 512 sweeps "
        "(default: $REPRO_EXEC_MODE, else process)",
    )
    run_parser.set_defaults(func=_cmd_run)

    search_parser = commands.add_parser(
        "search",
        help="bounded schedule-space search: permute same-timestamp dispatch orders "
        "hunting safety violations; exits 1 with a replay token when one is found",
    )
    search_parser.add_argument(
        "--algorithm", default="all", metavar="NAME",
        help="algorithm to search ('all' = every harness algorithm; "
        "'planted-ben-or' targets the deliberately broken fixture)",
    )
    search_parser.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="maximum schedules to execute per algorithm (default 200)",
    )
    search_parser.add_argument(
        "--n", type=int, default=4, metavar="N",
        help="system size (default 4; small n keeps the schedule space tight)",
    )
    search_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed fixing proposals and coin flips (default 0)",
    )
    search_parser.add_argument(
        "--fanout", type=int, default=4, metavar="F",
        help="alternatives explored per scheduling decision (default 4)",
    )
    search_parser.add_argument(
        "--max-decisions", type=int, default=64, metavar="D",
        help="how deep into a schedule new branches are opened (default 64)",
    )
    search_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap split across the searched algorithms (default: none)",
    )
    search_parser.add_argument(
        "--replay", default=None, metavar="TOKEN",
        help="re-execute one schedule from its replay token instead of searching",
    )
    search_parser.set_defaults(func=_cmd_search)

    fit_parser = commands.add_parser(
        "fit-delays",
        help="fit a delay model from a measured RTT dataset (CSV or JSONL) and "
        "print its repr, ready to paste into an ExperimentConfig",
    )
    fit_parser.add_argument(
        "dataset", metavar="FILE",
        help="RTT samples: .jsonl/.ndjson (numbers or objects with an rtt/delay/"
        "latency field) or CSV (a header naming such a column, or numeric rows)",
    )
    fit_parser.add_argument(
        "--model", default="empirical", choices=["empirical", "shifted-lognormal", "replay"],
        help="what to fit: an ECDF quantile grid (empirical, the default), a "
        "three-parameter shifted log-normal, or a deterministic trace replay "
        "of the samples in file order",
    )
    fit_parser.add_argument(
        "--resolution", type=int, default=64, metavar="R",
        help="empirical only: quantile-grid intervals kept by the sketch "
        "(default 64; any model quantile is within one grid cell of the data's)",
    )
    fit_parser.add_argument(
        "--unit-mean", action="store_true",
        help="rescale the samples to mean 1.0 before fitting, matching the "
        "simulator's unit-mean virtual-time convention (what e11 sweeps)",
    )
    fit_parser.set_defaults(func=_cmd_fit_delays)

    merge_parser = commands.add_parser(
        "merge", help="fold all shards or work-stealing workers in DIR into the single-host result"
    )
    merge_parser.add_argument("out_dir", metavar="DIR", help="directory holding every worker's output")
    merge_parser.add_argument(
        "--report", action="store_true",
        help="print the full experiment report (identical to an unsharded run)",
    )
    merge_parser.set_defaults(func=_cmd_merge)

    status_parser = commands.add_parser(
        "status",
        help="show progress in DIR: per-shard counts, or for work-stealing runs the "
        "done/leased/stolen/orphaned point counts and per-worker table",
    )
    status_parser.add_argument(
        "out_dir", metavar="DIR", help="directory holding shard manifests or a plan header"
    )
    status_parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="poll and redraw the status every SECONDS (the same renderer as the "
        "serve HTML page); Ctrl-C to stop",
    )
    status_parser.set_defaults(func=_cmd_status)

    serve_parser = commands.add_parser(
        "serve",
        help="serve live progress of DIR over HTTP: /status, /progress, /workers "
        "and /aggregate as JSON, plus an auto-refreshing HTML page at /; the "
        "partial /aggregate is folded incrementally and is bit-identical to "
        "merge over the same completed points",
    )
    serve_parser.add_argument(
        "--out", required=True, metavar="DIR",
        help="run directory to observe (work-stealing or static shards; read-only)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, metavar="P",
        help="TCP port to listen on (default 8321; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1; use 0.0.0.0 to expose on the LAN)",
    )
    serve_parser.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 on shard/manifest errors)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShardError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe; point
        # stdout at devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
