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
the simulator.  ``run eN`` then loads driver N and the simulator that
executes its plan; ``merge`` loads the driver the directory recorded, to
rebuild the plan, and no simulator (a plan is data: see
:mod:`repro.harness.config`); ``status`` loads no driver at all.  Scenario
registries, the search, the delay fitter and the HTTP server load inside
the commands that use them.  A new top-level import
here is a cost every command pays; ``tests/test_startup_imports.py`` holds
each command's import graph.
"""

from __future__ import annotations

import argparse
import os
import sys
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
    """Build the named experiment's plan, restricted to ``scenarios``.

    A driver that sweeps named fault scenarios exports them as
    ``SCENARIOS``, and every restricting name must be one of them.  A driver
    without ``SCENARIOS`` refuses a restriction when ``require_scenarios``
    is set; the merge path clears it, since the manifests record a
    scenario list (``["none"]``) for every experiment.
    """
    module = _resolve_experiment(experiment)
    if seeds is None and seed_count is not None:
        seeds = default_seeds(seed_count)
    known = getattr(module, "SCENARIOS", None)
    if scenarios is None or (known is None and not require_scenarios):
        return module, module.plan(seeds=seeds)
    if known is None:
        raise ShardError(
            f"experiment {experiment!r} does not take --scenario "
            f"(it sweeps no named fault scenarios)"
        )
    for name in scenarios:
        if name not in known:
            raise ShardError(
                f"unknown scenario {name!r} for {experiment}; choose from: " + ", ".join(known)
            )
    return module, module.plan(seeds=seeds, scenarios=tuple(scenarios))


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


#: What ``run --out`` prints after a point's label, by its outcome.
_OUTCOME_NOTES = {
    "lost": "  (a thief checkpointed it first)",
    "left-behind": "  (leased by a live worker, or out of --max-points)",
}


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = None if args.scenario is None else (args.scenario,)
    module, plan = _build_plan(args.experiment, args.seeds, scenarios=scenarios)
    if args.steal and args.shard is not None:
        raise ShardError(
            "--steal and --shard are mutually exclusive: a --steal worker is always "
            "shard 1/1, claiming whole points through leases"
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
    if args.max_workers is not None and args.max_workers < 1:
        raise ShardError(f"--max-workers must be >= 1, got {args.max_workers}")
    if args.out is None:
        if args.steal or args.shard is not None:
            flag = "--steal" if args.steal else "--shard"
            raise ShardError(f"{flag} needs --out DIR to hold the checkpoints and the manifest")
        report = run_planned(plan, module.build_report, max_workers=args.max_workers)
        print(report.format())
        return 0
    if args.steal:
        result = run_work_stealing(
            plan,
            args.out,
            worker=args.worker,
            lease_ttl=DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl,
            max_workers=args.max_workers,
            max_points=args.max_points,
            wait=args.wait,
            poll_interval=args.poll_interval,
        )
    else:
        shard = ShardSpec.parse(args.shard) if args.shard is not None else ShardSpec(1, 1)
        result = run_shard(plan, shard, args.out, max_workers=args.max_workers)
    print(
        f"worker {result.worker} (shard {result.shard}) of {plan.key}: "
        f"{len(result.computed)} points computed, {len(result.stolen)} stolen, "
        f"{len(result.already_done)} already done; "
        f"{result.runs_executed + result.runs_reused} runs ({result.runs_executed} executed, "
        f"{result.runs_reused} resumed from checkpoints)"
    )
    for _, entry in sorted(result.points.items()):
        note = _OUTCOME_NOTES.get(entry["outcome"], "")
        print(f"  {entry['outcome']:<12}  {entry['label']}{note}")
    print(f"worker manifest: {result.manifest}")
    print(f"progress:  python -m repro status {result.out_dir}")
    print(f"when every point is done:  python -m repro merge {result.out_dir} --report")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .harness.config import ALGORITHMS
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
            print(f"{algorithm}: VIOLATION after {outcome.runs} schedules; {outcome.coverage}")
            print(f"  {outcome.violation}")
            print(f"  replay token: {outcome.token}")
            print(f"  reproduce:    python -m repro search --replay '{outcome.token}'")
        else:
            cut = outcome.alternatives_cut
            if outcome.exhausted:
                state = "space exhausted"
            elif outcome.drained:
                state = f"not exhausted: {cut} alternatives cut by the caps"
            else:
                state = f"budget spent, {cut} alternatives cut" if cut else "budget spent"
            print(
                f"{algorithm}: no violation in {outcome.runs} schedules ({state}); "
                f"{outcome.coverage}"
            )
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
            title=f"{plan.key}: {merged.shard_count} shard(s), "
            f"{plan.total_runs} runs over {len(plan.points)} points",
        )
    )
    print()
    print(f"full experiment report:  python -m repro merge {args.out_dir} --report")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .obs.status import render_status_text, watch_status

    if args.watch is not None:
        if not 0 < args.watch < float("inf"):  # nan fails both comparisons
            raise ShardError(f"--watch must be a finite number of seconds > 0, got {args.watch:g}")
        try:
            watch_status(args.out_dir, args.watch)
        except KeyboardInterrupt:
            pass
        return 0
    RunDirectory(args.out_dir).recorded()  # a directory nothing was written to is an error
    print(render_status_text(args.out_dir))
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
        help="restrict an experiment that sweeps named fault scenarios to one of "
        "them (e.g. lossy-links for e9, delay-pivotal for e10, "
        "kill-during-recovery for e11); an unknown name lists the experiment's own",
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
        help="processes in total, this one included (default: usable CPUs)",
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
        help="show progress in DIR: the done/leased/orphaned/unclaimed point counts, "
        "checkpoints by shard and one line per writer (the text serve's page shows)",
    )
    status_parser.add_argument(
        "out_dir", metavar="DIR", help="run directory (the one holding plan.json)"
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
        help="run directory to observe (read-only)",
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
