#!/usr/bin/env python3
"""The layered perf ledger: one command, five workloads, every metric by name.

Three ways in, one measuring routine (:func:`measure`) behind all of them:

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    The ``BENCHMARK.json`` contract.  Measures one workload for about ``T``
    seconds and prints, as the last line of stdout, one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 bench/run.py [--traced] [--seed S] [--seconds T] [--out FILE]``
    The ledger: every workload in turn, every metric printed with its unit,
    and (with ``--out``) the full record -- samples, quartiles, counts,
    digests, environment stamp -- written as JSON.

``python3 bench/run.py --compare A.json B.json``
    One row per (workload, end-to-end metric) with a verdict against the
    bound in ``BENCHMARK.json``; under each *worse* row, the per-layer
    metric that moved most.

Protocol.  This process only drives: each repeat of a workload is one fresh
child (``--child``) that imports the program, builds the inputs from the
seed, runs the workload's fixed work once inside the timed region, verifies
the outputs and reports.  Repeats run one at a time until the time budget
is spent (at least :data:`MIN_REPEATS`), and every reported value is the
median over the repeats; counts and digests must be identical across them.

Reference seconds.  The host's speed moves by tens of percent in phases of
minutes (README, "Sizes"), so every child brackets its timed region with
:func:`host_probe`, a fixed piece of pure-Python work that knows nothing of
the program, and every time in the ledger is scaled by
``PROBE_REFERENCE_S / probe_s``: seconds as they would read on the quiet
reference host.  The record keeps the raw seconds and the probe next to them.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Untraced repeats below which a median means little.
MIN_REPEATS = 3
#: Upper bound on repeats, so a fast host does not spawn children forever.
MAX_REPEATS = 15
#: Hard stop for one child; the contract allows a whole run 180 s.
CHILD_TIMEOUT_S = 150.0

#: Layers a workload must not touch at all (README, interaction table); a
#: non-zero count there means the workload no longer isolates what it claims.
MUST_BE_ZERO = {
    "flood": ("core.scan_calls", "sharedmem.propose_calls", "sharedmem.ops", "runner.runs")
    + ("adversary.deliveries_calls", "adversary.defer_calls"),
    "deep_rounds": ("adversary.deliveries_calls", "adversary.defer_calls"),
    "wide_n": ("adversary.deliveries_calls", "adversary.defer_calls"),
}

#: What :func:`host_probe` takes on the reviewing host in a quiet hour (the
#: best of 40).  Only sets the scale: reference seconds are real seconds there.
PROBE_REFERENCE_S = 0.265

#: Per-layer metrics that depend on wall-clock timing rather than on the
#: work (a heartbeat fires or not), so repeats may disagree on them.
_TIMING_COUNTS = frozenset({"coordinator.renew_calls"})


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads(SPEC_PATH.read_text())


# -------------------------------------------------------------------- child
def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children.

    ``VmHWM`` belongs to this process image; ``ru_maxrss`` would also carry
    the driver's footprint across the exec that started us.
    """
    own_kb = 0.0
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = float(line.split()[1])
                    break
    except OSError:
        pass
    if not own_kb:
        own_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    children_kb = float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(own_kb, children_kb) / 1024.0


def host_probe() -> float:
    """Seconds this host needs for a fixed piece of interpreter work.

    Half integer arithmetic, half the kind of work a simulation does (a heap
    of tuples, dict counters, generator sends, list growth), about 0.27 s in
    all: long enough to average over the host's 10-100 ms bursts, and it
    imports nothing of the program, so no change to ``src/`` can move it.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection's cost would depend on what the child holds
    try:
        started = time.perf_counter()
        total = 0
        for index in range(2_500_000):
            total += index * index

        def accumulate() -> Any:
            running = 0
            while True:
                running += yield running

        sink = accumulate()
        next(sink)
        heap: List[Any] = []
        counts: Dict[int, int] = {}
        trail: List[Any] = []
        clock = 0.0
        for index in range(130_000):
            clock += 0.37
            entry = (clock + (index * 7919 % 101) * 0.01, index, index & 3, index & 63, None)
            heapq.heappush(heap, entry)
            if len(heap) > 1024:  # bounded, so the probe adds nothing to peak RSS
                when, _, kind, pid, _ = heapq.heappop(heap)
                counts[pid] = counts.get(pid, 0) + 1
                trail.append((when, pid))
                sink.send(kind)
            if len(trail) > 512:
                del trail[:]
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def run_child(
    workload_name: str, seed: int, trace: bool, tiny: bool = False, spans_out: Optional[Path] = None
) -> Dict[str, Any]:
    """One repeat, in this process: set up, time the fixed work, verify.

    Everything before ``ready_at`` -- importing the program, building the
    inputs, making directories -- is set-up; the driver turns it into
    ``setup_s`` by subtracting the moment it spawned us (``time.monotonic``
    is one clock for every process on the host).  The timed region sits
    between two :func:`host_probe` calls (skipped at the ``tiny`` test size).
    """
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import workloads

    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.prepare(seed, tiny)
    tracer = None
    execute = workload.execute
    if trace:
        from bench.spans import Tracer

        tracer = Tracer()
        tracer.install()
        execute = workload.execute_traced or execute
    gc.collect()
    ready_at = time.monotonic()
    # The better of two probes on each side: the first after a pause (this
    # process slept while ``steal_e2e``'s workers ran) reads up to 2x slow.
    probe_s = PROBE_REFERENCE_S if tiny else min(host_probe(), host_probe())
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        raw = execute(inputs)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    cpu_s = _cpu_seconds() - cpu_before
    if not tiny:
        probe_s = (probe_s + min(host_probe(), host_probe())) / 2
    outcome = workload.verify(inputs, raw)
    report: Dict[str, Any] = {
        "ready_at": ready_at,
        "probe_s": probe_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "events": outcome.totals["events_processed"],
        "totals": outcome.totals,
        "digest": outcome.digest,
        "problems": outcome.problems,
        "extra": outcome.extra,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(outcome.totals, outcome.extra, wall_s)
        report["self_times"] = tracer.self_times()
        report["wrappers_left"] = tracer.installed
        if spans_out is not None:
            tracer.dump(spans_out)
    return report


def _spawn_child(
    workload: str, seed: int, trace: bool, spans_out: Optional[Path] = None
) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and parse its report line."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--child", "--workload", workload]
    argv += ["--seed", str(seed), "--trace", "1" if trace else "0"]
    if spans_out is not None:
        argv += ["--spans", str(spans_out)]
    spawned_at = time.monotonic()
    # Its own session, so that a timeout can take the CLI workers down too.
    child = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    ended_at = time.monotonic()
    if child.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload} child exited {child.returncode} without a report")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready_at") - spawned_at
    report["child_s"] = ended_at - spawned_at
    return report


# ------------------------------------------------------------------ measure
def _entry(values: Sequence[float]) -> Dict[str, Any]:
    """One metric's repeats: the reported value (median), quartiles, samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        # Inclusive: with three repeats the default method returns min and max.
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "value": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "samples": list(values),
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, spans_out: Optional[Path] = None
) -> Dict[str, Any]:
    """Measure one workload for about ``seconds``; the record of that run.

    Untraced: at least :data:`MIN_REPEATS` repeats, more while the budget
    lasts.  Traced: one untraced reference repeat (the denominator of
    ``trace.overhead_ratio``), then at least one traced repeat; each traced
    repeat overwrites ``spans_out`` with its spans as JSONL.
    """
    began = time.monotonic()
    reference = _spawn_child(workload, seed, trace=False) if trace else None
    repeats: List[Dict[str, Any]] = []
    floor = 1 if trace else MIN_REPEATS
    while len(repeats) < MAX_REPEATS:
        repeats.append(_spawn_child(workload, seed, trace, spans_out if trace else None))
        spent = time.monotonic() - began
        if len(repeats) >= floor and spent + repeats[-1]["child_s"] > seconds:
            break
    expected = json.loads(EXPECTED_PATH.read_text()).get(workload) if seed == 0 else None
    record = summarise(workload, repeats, reference, expected)
    record.update(seed=seed, seconds=seconds)
    return record


def summarise(
    workload: str,
    repeats: List[Dict[str, Any]],
    reference: Optional[Dict[str, Any]] = None,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Check the repeats against each other and reduce them to medians.

    ``repeats`` are child reports of one kind; a ``reference`` (untraced)
    report marks them as traced.  ``expected`` is the workload's
    ``expected.json`` entry when the seed has one.
    """
    spec = load_spec()
    trace = reference is not None
    everyone = repeats + ([reference] if reference else [])
    problems = [problem for repeat in everyone for problem in repeat["problems"]]
    failed = sum(repeat["failed"] for repeat in everyone)
    first = everyone[0]
    for repeat in everyone[1:]:
        if (repeat["digest"], repeat["totals"], repeat["attempted"]) != (
            first["digest"],
            first["totals"],
            first["attempted"],
        ):
            failed += 1
            problems.append("repeats disagree on counts or digest: the work is not fixed")
            break
    if expected is not None and expected["digest"] != first["digest"]:
        failed += 1
        problems.append(
            f"digest {first['digest'][:16]}... differs from expected.json "
            f"({expected['digest'][:16]}...): simulated statistics changed"
        )

    record: Dict[str, Any] = {
        "workload": workload,
        "traced": trace,
        "repeats": len(repeats),
        "attempted": sum(repeat["attempted"] for repeat in everyone),
        "problems": problems,
        "digest": first["digest"],
        "totals": first["totals"],
    }
    # Reference seconds: raw seconds times how fast the host was, per repeat.
    for repeat in everyone:
        repeat["speed"] = PROBE_REFERENCE_S / repeat["probe_s"]
    record["raw"] = {
        "probe_s": [repeat["probe_s"] for repeat in repeats],
        "wall_s": [repeat["wall_s"] for repeat in repeats],
        "cpu_s": [repeat["cpu_s"] for repeat in repeats],
        "setup_s": [repeat["setup_s"] for repeat in repeats],
    }
    if not trace:
        walls = [repeat["wall_s"] * repeat["speed"] for repeat in repeats]
        samples = {
            "setup_s": [repeat["setup_s"] * repeat["speed"] for repeat in repeats],
            "wall_s": walls,
            "cpu_s": [repeat["cpu_s"] * repeat["speed"] for repeat in repeats],
            "events_per_s": [repeat["events"] / wall for repeat, wall in zip(repeats, walls)],
            "runs_per_s": [repeat["attempted"] / wall for repeat, wall in zip(repeats, walls)],
            "peak_rss_mb": [repeat["peak_rss_mb"] for repeat in repeats],
            "ops_attempted": [float(repeat["attempted"]) for repeat in repeats],
        }
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        record["metrics"] = {
            name: dict(_entry(values), unit=units[name]) for name, values in samples.items()
        }
        record["failed"] = failed
        return record

    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    names = [name for name in units if name != "trace.overhead_ratio"]
    layers = [dict(repeat["layers"]) for repeat in repeats]
    for name in names:
        if units[name] == "count" and name not in _TIMING_COUNTS:
            if any(layer[name] != layers[0][name] for layer in layers[1:]):
                failed += 1
                problems.append(f"traced repeats disagree on the count {name}")
    for name in MUST_BE_ZERO.get(workload, ()):
        if layers[0][name]:
            failed += 1
            problems.append(f"{name} must be 0 on {workload}, saw {layers[0][name]}")
    if any(repeat["wrappers_left"] for repeat in repeats):
        failed += 1
        problems.append("a traced repeat left wrappers installed")
    for layer, repeat in zip(layers, repeats):
        for name, unit in units.items():
            if unit in ("s", "us") and name in layer:
                layer[name] *= repeat["speed"]
        layer["trace.overhead_ratio"] = (repeat["wall_s"] * repeat["speed"]) / (
            reference["wall_s"] * reference["speed"]
        )
        # Subprocess walls exist only where subprocesses ran: the reference.
        layer.update(
            (name, value * reference["speed"])
            for name, value in reference["extra"].items()
            if name.startswith("cli.")
        )
    metrics = {
        name: dict(_entry([layer[name] for layer in layers]), unit=unit)
        for name, unit in units.items()
    }
    record["metrics"] = metrics
    record["failed"] = failed
    record["self_times"] = {
        layer: statistics.median(
            repeat["self_times"].get(layer, 0.0) * repeat["speed"] for repeat in repeats
        )
        for layer in sorted({layer for repeat in repeats for layer in repeat["self_times"]})
    }
    return record


def contract_line(record: Dict[str, Any]) -> str:
    """The one-line result object the ``BENCHMARK.json`` contract asks for."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in record["metrics"].items()
            },
        }
    )


# ------------------------------------------------------------------- ledger
def environment() -> Dict[str, Any]:
    """Where the numbers were taken: interpreter, host, load, revision."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": cpus,
        "numpy": numpy_version,
        "git_revision": revision,
        "loadavg_1m": os.getloadavg()[0],
    }


def warn_if_loaded(env: Dict[str, Any]) -> None:
    """Say so, loudly, when the host is already busier than it has cores."""
    if env["loadavg_1m"] > env["nproc"]:
        sys.stderr.write(
            f"\n*** WARNING: 1-minute load average {env['loadavg_1m']:.2f} exceeds "
            f"nproc={env['nproc']}: timings from this run are not trustworthy ***\n\n"
        )


def print_record(record: Dict[str, Any]) -> None:
    """Every metric of one measured workload, by name, with its unit."""
    kind = "per-layer (traced)" if record["traced"] else "end-to-end"
    print(
        f"\n== {record['workload']}  seed={record['seed']}  {kind}  "
        f"repeats={record['repeats']}  attempted={record['attempted']}  failed={record['failed']}"
    )
    for name, entry in record["metrics"].items():
        print(
            f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:6s} "
            f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
        )
    if record["traced"]:
        shares = ", ".join(f"{layer} {value:.3f}s" for layer, value in record["self_times"].items())
        print(f"  self time by layer: {shares}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def run_ledger(seed: int, seconds: float, traced: bool, out: Optional[Path]) -> int:
    """Measure all five workloads; print and optionally write the record."""
    env = environment()
    warn_if_loaded(env)
    spec = load_spec()
    ledger: Dict[str, Any] = {"environment": env, "seed": seed, "seconds": seconds, "workloads": {}}
    if seed != 0:
        print(f"note: seed {seed} has no expected.json entry; repeats are checked against each other")
    failed = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        if workload == "steal_e2e":
            print("\nnote: steal_e2e -- the CLI fixes its own seeds, --seed only names the directory")
        entry = {"untraced": measure(workload, seed, seconds, trace=False)}
        print_record(entry["untraced"])
        if traced:
            entry["traced"] = measure(workload, seed, seconds, trace=True)
            print_record(entry["traced"])
        failed += sum(record["failed"] for record in entry.values())
        ledger["workloads"][workload] = entry
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    print(f"\nops_failed over all workloads: {failed}")
    return 1 if failed else 0


def update_expected() -> int:
    """Rewrite ``expected.json`` from one repeat of every workload at seed 0.

    For the change that alters simulated statistics on purpose: say so in
    its description, run this, and commit the new digests with it.
    """
    expected = {}
    for workload in (entry["name"] for entry in load_spec()["workloads"]):
        repeat = _spawn_child(workload, 0, trace=False)
        if repeat["failed"]:
            sys.stderr.write(f"{workload}: {repeat['problems']}\n")
            return 1
        expected[workload] = {
            "digest": repeat["digest"],
            "attempted": repeat["attempted"],
            "events": repeat["events"],
        }
        print(f"{workload}: {repeat['digest']}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------------ compare
def _spread(entry: Dict[str, Any]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def _verdict(
    before: Dict[str, Any], after: Dict[str, Any], better: str, bound: float, gate_spread: bool = True
) -> str:
    """``better`` / ``within bound`` / ``worse`` / ``unresolved`` for one row.

    A row whose own quartile spread exceeds the bound is *unresolved* unless
    every sample of B beats every sample of A.  ``gate_spread=False`` skips
    that test: the contract judges ``setup_s`` on its median alone.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (after["value"] - before["value"]) / before["value"]
    if gate_spread and max(_spread(before), _spread(after)) > bound:
        ahead = [sign * value for value in after["samples"]]
        behind = [sign * value for value in before["samples"]]
        return "better" if min(ahead) > max(behind) else "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "within bound"


def compare(path_a: Path, path_b: Path) -> int:
    """Print the A-to-B verdict table; exit status 1 on worse or unresolved."""
    spec = load_spec()
    before, after = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    print(f"A = {path_a}  ({before['environment']['git_revision']})")
    print(f"B = {path_b}  ({after['environment']['git_revision']})")
    print(f"{'workload':12s} {'metric':14s} {'A':>14s} {'B':>14s} {'change':>8s} {'bound':>6s}  verdict")
    flagged = 0
    identical = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        left, right = before["workloads"][workload], after["workloads"][workload]
        if (left["untraced"]["digest"], left["untraced"]["totals"]) != (
            right["untraced"]["digest"],
            right["untraced"]["totals"],
        ):
            identical = False
            print(f"{workload:12s} counts or digest differ: simulated statistics changed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = left["untraced"]["metrics"][name], right["untraced"]["metrics"][name]
            verdict = _verdict(a, b, metric["better"], metric["bound"], name != "setup_s")
            change = (b["value"] - a["value"]) / a["value"]
            print(
                f"{workload:12s} {name:14s} {a['value']:14.6g} {b['value']:14.6g} "
                f"{change:+8.1%} {metric['bound']:6.0%}  {verdict}"
            )
            if verdict in ("worse", "unresolved"):
                flagged += 1
            if verdict == "worse" and "traced" in left and "traced" in right:
                print(f"{'':12s} -> layer that moved most: {_moved_most(left, right)}")
    print(f"counts and digests identical: {'yes' if identical else 'NO'}")
    print(f"{flagged} row(s) worse or unresolved")
    return 1 if flagged or not identical else 0


def _moved_most(left: Dict[str, Any], right: Dict[str, Any]) -> str:
    """The per-layer time that grew most between two traced records."""
    a, b = left["traced"]["metrics"], right["traced"]["metrics"]
    moves = [
        (b[name]["value"] - a[name]["value"], name)
        for name in a
        if name.endswith("_s") and name in b and not name.startswith("trace.")
    ]
    delta, name = max(moves)
    base = a[name]["value"]
    share = f"{delta / base:+.0%}" if base else "new"
    return f"{name} {delta:+.4f} s ({share})"


# --------------------------------------------------------------------- main
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse the command line and dispatch to one of the three entries."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this workload only (contract mode)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget per measured run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="ledger: add the traced pass")
    parser.add_argument("--out", type=Path, help="ledger: write the full JSON record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="diff two records")
    parser.add_argument(
        "--update-expected", action="store_true", help="rewrite expected.json from seed 0"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--spans", type=Path, metavar="FILE", help="with --workload --trace 1: write the spans as JSONL"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        sys.stderr.write(f"error: {ROOT} holds no src/repro to measure\n")
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.update_expected:
        return update_expected()
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, bool(args.trace), spans_out=args.spans)))
        return 0
    if args.workload is None:
        return run_ledger(args.seed, args.seconds, args.traced, args.out)
    names = [entry["name"] for entry in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    warn_if_loaded(environment())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    for problem in record["problems"]:
        sys.stderr.write(f"problem: {problem}\n")
    print(contract_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
