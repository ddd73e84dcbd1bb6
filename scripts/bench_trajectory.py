#!/usr/bin/env python
"""Measure the kernel perf trajectory and write ``BENCH_<n>.json``.

Runs the micro kernel-flood benchmark (current and pre-refactor kernels,
see ``benchmarks/legacy_kernel.py``), the single-run micro benchmarks, and
the E8 scalability sweep workload, and records one JSON object per
benchmark::

    {"<name>": {"events/sec": ..., "wall": ..., "gc_s": ...,
                "gc_collections": [g0, g1, g2], "python": ..., "platform": ...}}

``events/sec`` is simulator events processed per wall-clock second (the
kernel's throughput unit; see ``docs/performance.md``) and ``wall`` the
best-of wall-clock seconds of the benchmark, both measured with the cyclic
collector *off*.  ``gc_s`` and ``gc_collections`` come from one extra pass
of the same work with the collector *on*: the seconds spent inside it and
the passes per generation, counted by a ``gc.callbacks`` hook -- what the
timed numbers leave out, and ``--compare`` prints them without ever gating
on them.  The three ``micro_single_run_hybrid-local-coin@<scenario>`` rows
run the same consensus instance under an installed adversary whose scenario
fires no kernel hook (``none``), the send hook only (``lossy-links``) or the
dispatch hook only (``slow-minority``); each carries ``vs_no_scenario``, its
event rate over that of the scenario-less run measured interleaved with it
-- for ``@none`` the price of a dormant adversary on one real consensus run.
Printed by ``--compare``, never gated.  The output name is derived:
the next free ``BENCH_<n>.json`` in the repo root (override with ``--out``).
With ``--compare`` the script also diffs events/sec against the
highest-numbered previous ``BENCH_*.json``; the diff is warn-only unless
``--fail-on-regression PCT`` arms it, in which case any benchmark that
loses more than PCT percent of its event rate makes the script exit 1
(the nightly CI lane runs with ``--fail-on-regression 25``; push/PR lanes
stay warn-only -- see ``docs/performance.md``).
"""

import argparse
import gc
import glob
import json
import pathlib
import platform
import re
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Warn when a benchmark loses more than this fraction of its event rate.
REGRESSION_TOLERANCE = 0.10


def _numbered_benches():
    """All ``(n, path)`` pairs for ``BENCH_<n>.json`` files in the repo root."""
    pairs = []
    for path in glob.glob(str(REPO_ROOT / "BENCH_*.json")):
        path = pathlib.Path(path)
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            pairs.append((int(match.group(1)), path))
    return pairs


def next_bench_path():
    """The next free ``BENCH_<n>.json`` (one past the highest committed)."""
    numbered = _numbered_benches()
    next_index = max(n for n, _ in numbered) + 1 if numbered else 1
    return REPO_ROOT / f"BENCH_{next_index}.json"


def _timed(fn):
    """Run ``fn`` once with GC hygiene; return ``(value, wall_seconds)``.

    The collector stays off here although the current kernel pauses it by
    itself: the legacy-kernel reconstruction does not, and every committed
    ``BENCH_<n>.json`` was measured this way.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return value, wall


def _best_of(fn, rounds):
    """Best wall clock over ``rounds`` runs; returns ``(value, best_wall)``."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        value, wall = _timed(fn)
        best = min(best, wall)
    return value, best


def _collector_pass(fn):
    """Run ``fn`` once with the collector on; return its ``gc_*`` row fields."""
    seconds = 0.0
    started = 0.0
    collections = [0, 0, 0]

    def hook(phase, info):
        nonlocal seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            seconds += time.perf_counter() - started
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(hook)
    try:
        fn()
    finally:
        gc.callbacks.remove(hook)
    return {"gc_s": round(seconds, 4), "gc_collections": collections}


def _entry(events, wall, collector, **extra):
    """One schema row: events/sec, wall, collector pass, interpreter."""
    return {
        "events/sec": round(events / wall, 1) if events else None,
        "wall": round(wall, 4),
        **collector,
        **extra,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure(rounds):
    """Run every trajectory benchmark; returns ``{name: entry}``."""
    from benchmarks.legacy_kernel import LegacyKernel, LegacyNetwork
    from benchmarks.test_bench_micro import _build_flood, _run_flood
    from repro.experiments import e8_scalability
    from repro.experiments.common import default_seeds
    from repro.harness.runner import run_consensus
    from repro.network.transport import Network
    from repro.sim.kernel import SimulationKernel

    results = {}

    # The two flood variants are measured interleaved (legacy, new, legacy,
    # new, ...) with best-of on each side -- the same protocol as the
    # speedup gate in benchmarks/test_bench_micro.py -- so a load spike on
    # the host skews both sides alike instead of one.
    best = {"legacy": float("inf"), "new": float("inf")}
    events = {}
    for _ in range(rounds):
        for label, kernel_cls, network_cls in (
            ("legacy", LegacyKernel, LegacyNetwork),
            ("new", SimulationKernel, Network),
        ):
            # _run_flood times kernel.run() itself (setup excluded, GC
            # quiesced), so its wall is used directly.
            n_events, wall = _run_flood(kernel_cls, network_cls)
            events[label] = n_events
            best[label] = min(best[label], wall)
    results["kernel_flood_n64"] = _entry(
        events["new"], best["new"], _collector_pass(_build_flood(SimulationKernel, Network).run)
    )
    results["kernel_flood_n64_legacy"] = _entry(
        events["legacy"], best["legacy"], _collector_pass(_build_flood(LegacyKernel, LegacyNetwork).run)
    )
    speedup = best["legacy"] / best["new"]
    print(f"kernel_flood_n64: {events['new'] / best['new']:,.0f} events/sec ({best['new']:.4f}s)")
    print(
        f"kernel_flood_n64_legacy: {events['legacy'] / best['legacy']:,.0f} events/sec "
        f"({best['legacy']:.4f}s, speedup {speedup:.2f}x)"
    )

    from dataclasses import replace

    from repro.adversary import build_scenario
    from repro.cluster.topology import ClusterTopology
    from repro.harness.config import ExperimentConfig

    topology = ClusterTopology.figure1_right()
    for algorithm in ("hybrid-local-coin", "hybrid-common-coin", "ben-or", "mp-common-coin", "mm-local-coin"):
        config = ExperimentConfig(topology=topology, algorithm=algorithm, proposals="split", seed=5)
        result, wall = _best_of(lambda config=config: run_consensus(config), max(2, rounds // 2))
        n_events = result.sim_result.events_processed
        results[f"micro_single_run_{algorithm}"] = _entry(
            n_events, wall, _collector_pass(lambda config=config: run_consensus(config))
        )
        print(f"micro_single_run_{algorithm}: {n_events / wall:,.0f} events/sec ({wall:.4f}s)")

    # One real consensus run under an installed adversary: which kernel hooks
    # a scenario can fire decides what it costs.  The scenario-less run is
    # re-measured interleaved with the three so the ratio compares like with
    # like; a run is ~1 ms, hence the many rounds.
    base = ExperimentConfig(
        topology=topology, algorithm="hybrid-local-coin", proposals="split", seed=5
    )
    scenarios = {
        name: replace(base, scenario=build_scenario(name, topology.n, 0.3))
        for name in ("none", "lossy-links", "slow-minority")
    }
    configs = {None: base, **scenarios}
    best = dict.fromkeys(configs, float("inf"))
    n_events = {}
    for _ in range(rounds * 8):
        for name, config in configs.items():
            result, wall = _timed(lambda config=config: run_consensus(config))
            n_events[name] = result.sim_result.events_processed
            best[name] = min(best[name], wall)
    base_rate = n_events[None] / best[None]
    for name, config in scenarios.items():
        rate = n_events[name] / best[name]
        results[f"micro_single_run_hybrid-local-coin@{name}"] = _entry(
            n_events[name],
            best[name],
            _collector_pass(lambda config=config: run_consensus(config)),
            vs_no_scenario=round(rate / base_rate, 3),
        )
        print(
            f"micro_single_run_hybrid-local-coin@{name}: {rate:,.0f} events/sec "
            f"({best[name]:.4f}s, {rate / base_rate:.3f}x the scenario-less rate)"
        )

    # The E8 sweep workload, run serially so events can be totalled.
    plan = e8_scalability.plan(seeds=default_seeds(4), sizes=(4, 8, 12))

    def e8_serial():
        total = 0
        for point in plan.points:
            for seed in plan.seeds:
                total += run_consensus(point.config.with_seed(seed)).sim_result.events_processed
        return total

    total_events, wall = _timed(e8_serial)
    results["e8_scalability_serial"] = _entry(total_events, wall, _collector_pass(e8_serial))
    print(f"e8_scalability_serial: {total_events / wall:,.0f} events/sec ({wall:.4f}s)")

    return results


def previous_bench(out_path):
    """The highest-numbered ``BENCH_*.json`` in the repo root besides ``out``."""
    candidates = [
        (n, path)
        for n, path in _numbered_benches()
        if path.resolve() != out_path.resolve()
    ]
    return max(candidates)[1] if candidates else None


def compare(current, previous_path, fail_tolerance=None):
    """Diff events/sec vs a previous trajectory; return the failing names.

    Every drop beyond :data:`REGRESSION_TOLERANCE` is flagged as a warning.
    ``fail_tolerance`` (a fraction, e.g. 0.25) arms the hard gate: the
    returned list holds the benchmarks that regressed beyond it, for the
    caller to turn into a non-zero exit.  The collector-on pass (``gc_s``,
    ``gc_collections``) is printed next to each row and never gated on.
    """
    previous = json.loads(previous_path.read_text())
    failures = []
    print(f"\ntrajectory vs {previous_path.name}:")
    for name, entry in sorted(current.items()):
        before = previous.get(name, {})
        then = before.get("events/sec")
        now = entry.get("events/sec")
        if not then or not now:
            print(f"  {name}: no prior events/sec to compare")
        else:
            change = (now - then) / then
            marker = ""
            if fail_tolerance is not None and change < -fail_tolerance:
                marker = "  <-- FAILURE: regression beyond the hard gate"
                failures.append(name)
            elif change < -REGRESSION_TOLERANCE:
                marker = "  <-- WARNING: regression"
            print(f"  {name}: {then:,.0f} -> {now:,.0f} events/sec ({change:+.1%}){marker}")
            print(
                f"    collector on: gc_s {before.get('gc_s', 'n/a')} -> {entry['gc_s']}, "
                f"collections {before.get('gc_collections', 'n/a')} -> {entry['gc_collections']}"
            )
        if "vs_no_scenario" in entry:
            print(
                f"    vs no scenario: {before.get('vs_no_scenario', 'n/a')} -> "
                f"{entry['vs_no_scenario']}x the scenario-less event rate"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="trajectory file to write (default: the next free BENCH_<n>.json)",
    )
    parser.add_argument("--rounds", type=int, default=5, help="best-of rounds for the flood benchmark")
    parser.add_argument(
        "--compare",
        action="store_true",
        help="diff events/sec against the previous BENCH_*.json",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="with --compare, exit 1 when any benchmark loses more than "
        "PCT%% of its event rate (the nightly lane uses 25)",
    )
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None and not args.compare:
        parser.error("--fail-on-regression requires --compare")

    out_path = args.out if args.out is not None else next_bench_path()
    results = measure(args.rounds)
    out_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out_path}")

    if args.compare:
        previous = previous_bench(out_path)
        if previous is None:
            print("no previous BENCH_*.json found; nothing to compare")
        else:
            tolerance = (
                args.fail_on_regression / 100.0
                if args.fail_on_regression is not None
                else None
            )
            failures = compare(results, previous, fail_tolerance=tolerance)
            if failures:
                print(
                    f"\n{len(failures)} benchmark(s) regressed beyond "
                    f"{args.fail_on_regression:g}%: " + ", ".join(failures)
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
