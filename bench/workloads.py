"""The five fixed-work workloads of the perf ledger.

Every workload is three functions over one ``inputs`` dict:

* ``prepare(seed, tiny)`` builds the inputs from the workload seed --
  consensus seed lists, ``ExperimentConfig`` objects, sweep plans, CLI
  argument vectors, temporary directories.  It runs before the timed region
  and is billed to ``setup_s``.
* ``execute(inputs)`` is the timed region: it hands the generated inputs to
  the program under test and returns what came back, nothing else.
* ``verify(inputs, raw)`` runs after the clock stopped.  It checks every
  run's ``PropertyReport``/status and reduces the simulated statistics to an
  :class:`Outcome` (counts, a SHA-256 digest) that must repeat exactly.

The work is fixed by ``(workload, seed)``: no time budget reaches into
``execute``, so every count repeats exactly and the driver can compare
digests across repeats and against ``expected.json``.  ``tiny`` shrinks the
lists for the contract test; tiny digests are never recorded.

Why these five, and which layer each stresses, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.library import scenario_names
from repro.cluster.topology import ClusterTopology
from repro.coins.common import CommonCoin
from repro.coins.local import DeterministicCoin
from repro.core.base import PhaseMessage
from repro.experiments import e2_majority_crash, e5_mm_comparison, e9_adversary, e11_resilience
from repro.experiments.common import default_seeds
from repro.harness.aggregate import RunAggregate, SummaryReducer
from repro.harness.coordinator import merge_stolen, run_work_stealing
from repro.harness.distributed import SweepPlan, run_plan
from repro.harness.parallel import run_many
from repro.harness.runner import ExperimentConfig, run_consensus, termination_expected
from repro.network.transport import Network
from repro.obs.merge import IncrementalMerger
from repro.sim.kernel import RunStatus, SimConfig, SimulationKernel
from repro.sim.rng import RandomSource

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space for run directories; inside the checkout, git-ignored.
WORK_DIR = BENCH_DIR / ".work"

#: The simulated statistics hashed per run (ISSUE 11's output check).
DIGEST_FIELDS = (
    "events_processed",
    "messages_sent",
    "sm_ops",
    "rounds_max",
    "decided_value",
    "decision_time_max",
)

#: Run statistics summed per repeat for the per-layer count metrics.
TOTAL_FIELDS = (
    "events_processed",
    "messages_sent",
    "bytes_sent",
    "sm_ops",
    "consensus_objects_created",
    "rounds_max",
)
_FAULT_FIELDS = ("messages_omitted", "messages_duplicated", "messages_corrupted")


@dataclass
class Outcome:
    """What one repeat of a workload did, reduced to exactly-repeating data."""

    #: Operations attempted: consensus runs, plus the merge for ``steal_e2e``.
    attempted: int
    #: Operations that were unsafe, missed an expected termination, or whose
    #: output check failed.
    failed: int
    #: Sums of :data:`TOTAL_FIELDS` plus ``faults_injected`` over the repeat.
    totals: Dict[str, int]
    #: SHA-256 over every run's :data:`DIGEST_FIELDS` (and the report text).
    digest: str
    #: Layer metrics the workload measured itself (``cli.*``, ``obs.*``).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Human-readable reasons behind ``failed``.
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build, run and check it.

    Why each one exists is recorded once, in ``BENCHMARK.json``.
    """

    name: str
    prepare: Callable[[int, bool], Dict[str, Any]]
    execute: Callable[[Dict[str, Any]], Any]
    verify: Callable[[Dict[str, Any], Any], Outcome]
    #: In-process variant for the traced pass, where ``execute`` spawns
    #: subprocesses that wrappers installed here cannot reach.
    execute_traced: Optional[Callable[[Dict[str, Any]], Any]] = None


# ------------------------------------------------------------------ helpers
def _stream(seed: int, name: str) -> random.Random:
    """The workload's private RNG: same ``(seed, name)``, same inputs."""
    return random.Random(f"bench/{name}/{seed}")


def _draw_seeds(rng: random.Random, count: int) -> List[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


def _digest(rows: Iterable[Sequence[Any]]) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(tuple(row)).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _run_row(values: Mapping[str, float], decided_value: Optional[int]) -> Tuple[Any, ...]:
    """One run's :data:`DIGEST_FIELDS`, floats as hex so no digit is lost."""
    return (
        int(values["events_processed"]),
        int(values["messages_sent"]),
        int(values["sm_ops"]),
        int(values["rounds_max"]),
        decided_value,
        float(values["decision_time_max"]).hex(),
    )


def _zero_totals() -> Dict[str, int]:
    return dict.fromkeys(TOTAL_FIELDS + ("faults_injected",), 0)


def _sum_values(rows: Iterable[Mapping[str, float]]) -> Dict[str, int]:
    totals = _zero_totals()
    for values in rows:
        for name in TOTAL_FIELDS:
            totals[name] += int(values[name])
        totals["faults_injected"] += sum(int(values[name]) for name in _FAULT_FIELDS)
    return totals


def _aggregate_outcome(
    plans: Sequence[SweepPlan], aggregates: Sequence[Mapping[str, RunAggregate]]
) -> Outcome:
    """Reduce per-point aggregates (``run_plan`` / a merge) to an outcome.

    ``run_plan`` returns aggregates, not runs, but below the sketch capacity
    every :class:`~repro.harness.aggregate.StreamingStats` still holds each
    run's value, so the digest covers every run; values are sorted because
    sketch order depends on the host's priority backend (numpy or not).
    """
    totals = _zero_totals()
    rows: List[Tuple[Any, ...]] = []
    attempted = failed = 0
    problems: List[str] = []
    for position, (plan, by_label) in enumerate(zip(plans, aggregates)):
        for point in plan.points:
            aggregate = by_label[point.label]
            if not all(stats.exact for stats in aggregate.stats.values()):
                raise ValueError(f"{plan.key}/{point.label}: more runs than the sketch holds")
            attempted += aggregate.count
            unsafe = aggregate.count - aggregate.safe_count
            config = point.config
            stuck = 0
            if termination_expected(
                config.algorithm, config.topology, config.failure_pattern, config.scenario
            ):
                stuck = aggregate.count - aggregate.terminated_count
            if unsafe or stuck:
                failed += unsafe + stuck
                problems.append(
                    f"{plan.key}/{point.label}: {unsafe} unsafe, {stuck} missed termination"
                )
            for name in TOTAL_FIELDS:
                totals[name] += round(aggregate.mean(name) * aggregate.count)
            totals["faults_injected"] += sum(
                round(aggregate.mean(name) * aggregate.count) for name in _FAULT_FIELDS
            )
            row: List[Any] = [position, plan.key, point.label, aggregate.count, aggregate.safe_count]
            row.append(aggregate.terminated_count)
            for name in DIGEST_FIELDS:
                stats = aggregate.stats.get(name)
                row.append(sorted(value.hex() for value in stats.sketch_values) if stats else [])
            rows.append(tuple(row))
    return Outcome(
        attempted=attempted, failed=failed, totals=totals, digest=_digest(rows), problems=problems
    )


def _summary_outcome(summaries: Sequence[Any], expected_rounds: Sequence[int]) -> Outcome:
    """Reduce ``RunSummary`` objects; ``expected_rounds`` pins each run's depth."""
    failed = 0
    problems: List[str] = []
    for summary, rounds in zip(summaries, expected_rounds):
        reached = int(summary.values["rounds_max"])
        if not (summary.safety_ok and summary.terminated) or reached != rounds:
            failed += 1
            problems.append(
                f"{summary.algorithm} seed {summary.seed}: safe={summary.safety_ok} "
                f"terminated={summary.terminated} rounds={reached} (expected {rounds})"
            )
    return Outcome(
        attempted=len(summaries),
        failed=failed,
        totals=_sum_values(summary.values for summary in summaries),
        digest=_digest(_run_row(summary.values, summary.decided_value) for summary in summaries),
        problems=problems,
    )


# -------------------------------------------------------------------- flood
#: Process count, rounds and event count of one flood: the historical
#: ``kernel_flood_n64`` of ``benchmarks/test_bench_micro.py`` (BENCH_6..8).
FLOOD_N = 64
FLOOD_ROUNDS = 4
FLOOD_EVENTS = 33_088
#: Floods per repeat: 24 x 33 088 = 0.79M events, ~2.1 s on the 2-core host.
FLOOD_RUNS = 24


def _flood_process(ctx):
    """All-to-all broadcast rounds: the kernel's resume/send/delivery mix."""
    for round_number in range(FLOOD_ROUNDS):
        message = PhaseMessage(tag="bench", round_number=round_number, phase=1, est=round_number % 2)
        yield from ctx.broadcast(message)
        need = (round_number + 1) * FLOOD_N
        yield from ctx.wait_until(lambda mailbox, need=need: True if len(mailbox) >= need else None)
    return 1


def _prepare_flood(seed: int, tiny: bool) -> Dict[str, Any]:
    return {"seeds": _draw_seeds(_stream(seed, "flood"), 2 if tiny else FLOOD_RUNS)}


def _execute_flood(inputs: Dict[str, Any]) -> List[Tuple[Any, ...]]:
    rows = []
    for seed in inputs["seeds"]:
        rng = RandomSource(seed)
        kernel = SimulationKernel(config=SimConfig(), rng=rng)
        network = Network(FLOOD_N, rng=rng)
        kernel.attach_network(network)
        for pid in range(FLOOD_N):
            kernel.add_process(pid, _flood_process)
        result = kernel.run()
        rows.append(
            (
                result.status,
                result.events_processed,
                network.stats.messages_sent,
                network.stats.bytes_sent,
                sorted(set(result.decisions.values())),
                len(result.decisions),
                max(result.decision_times.values(), default=0.0),
            )
        )
    return rows


def _verify_flood(inputs: Dict[str, Any], raw: List[Tuple[Any, ...]]) -> Outcome:
    failed = 0
    problems = []
    totals = _zero_totals()
    digest_rows = []
    for seed, row in zip(inputs["seeds"], raw):
        status, events, messages, size, decided, deciders, decision_time = row
        if (
            status is not RunStatus.DECIDED
            or decided != [1]
            or deciders != FLOOD_N
            or events != FLOOD_EVENTS
        ):
            failed += 1
            problems.append(f"flood seed {seed}: {status}, {events} events, decided {decided}")
        totals["events_processed"] += events
        totals["messages_sent"] += messages
        totals["bytes_sent"] += size
        digest_rows.append((events, messages, 0, 0, 1, decision_time.hex()))
    return Outcome(
        attempted=len(raw), failed=failed, totals=totals, digest=_digest(digest_rows), problems=problems
    )


# -------------------------------------------------------------- deep_rounds
#: ``(algorithm, n, rounds, runs)``: singleton clusters, so every message is
#: its own cluster and each mailbox grows by n messages per phase for
#: ``rounds`` rounds.  Even n with a split proposal vector keeps every phase-1
#: exchange short of a majority (n/2 supporters each), so rounds are decided by
#: the coins alone -- and the coins are scripted.
DEEP_RUNS = (
    ("hybrid-local-coin", 16, 20, 2),
    ("ben-or", 14, 20, 2),
)


def _scripted_coin(rounds: int) -> Callable[[int], DeterministicCoin]:
    """Coins that keep the estimates split until round ``rounds`` decides.

    Real local coins make the round count geometric and heavy-tailed (11 to
    203 rounds over 20 seeds at n=16, a 300x spread in wall time); scripting
    them pins the depth, so the seed only moves message delays and order.
    """

    def coin_for(pid: int) -> DeterministicCoin:
        return DeterministicCoin([pid % 2] * (rounds - 2) + [0, 0])

    return coin_for


def _prepare_deep_rounds(seed: int, tiny: bool) -> Dict[str, Any]:
    rng = _stream(seed, "deep_rounds")
    runs = []
    for algorithm, n, rounds, count in DEEP_RUNS:
        if tiny:
            n, rounds, count = 6, 4, 1
        topology = ClusterTopology.singleton_clusters(n)
        for run_seed in _draw_seeds(rng, count):
            config = ExperimentConfig(
                topology=topology, algorithm=algorithm, proposals="split", seed=run_seed
            )
            runs.append((config, rounds))
    return {"runs": runs}


def _execute_deep_rounds(inputs: Dict[str, Any]) -> List[Any]:
    reducer = SummaryReducer()
    return [
        reducer(run_consensus(config, local_coin_factory=_scripted_coin(rounds)), index)
        for index, (config, rounds) in enumerate(inputs["runs"])
    ]


def _verify_deep_rounds(inputs: Dict[str, Any], raw: List[Any]) -> Outcome:
    return _summary_outcome(raw, [rounds for _, rounds in inputs["runs"]])


# ------------------------------------------------------------------- wide_n
def _coin_seeds(rng: random.Random, count: int, accept: Callable[[List[int]], bool]) -> List[int]:
    """Consensus seeds whose dealer coin starts with an accepted prefix.

    ``hybrid-common-coin`` decides in the first round whose common coin
    equals the majority estimate, so its round count -- and with it n^2
    messages per round -- is a coin flip per seed.  The dealer's bits are a
    cheap public function of the seed; drawing until the prefix fits pins
    the round count without running anything.
    """
    seeds: List[int] = []
    while len(seeds) < count:
        seed = rng.randrange(1 << 31)
        if accept(CommonCoin(seed).prefix(2)):
            seeds.append(seed)
    return seeds


def _prepare_wide_n(seed: int, tiny: bool) -> Dict[str, Any]:
    rng = _stream(seed, "wide_n")
    wide, split, memory = (24, 16, 64) if tiny else (512, 192, 2048)
    one_round = _coin_seeds(rng, 1, lambda bits: bits[0] == 0)[0]
    two_rounds = _coin_seeds(rng, 1, lambda bits: bits[0] == bits[1])[0]
    local, shared = _draw_seeds(rng, 2)
    runs = [
        # One cluster: everyone adopts the CAS winner (0), the first coin is 0.
        (
            ExperimentConfig(
                topology=ClusterTopology.single_cluster(wide),
                algorithm="hybrid-common-coin",
                proposals="unanimous-0",
                seed=one_round,
            ),
            1,
        ),
        # Four clusters split 2/2: no majority, all adopt coin 1, coin 2 agrees.
        (
            ExperimentConfig(
                topology=ClusterTopology.even_split(split, 4),
                algorithm="hybrid-common-coin",
                proposals="split",
                seed=two_rounds,
            ),
            2,
        ),
        (
            ExperimentConfig(
                topology=ClusterTopology.single_cluster(split),
                algorithm="hybrid-local-coin",
                proposals="split",
                seed=local,
            ),
            1,
        ),
        (
            ExperimentConfig(
                topology=ClusterTopology.single_cluster(memory),
                algorithm="shared-memory",
                proposals="split",
                seed=shared,
            ),
            1,
        ),
    ]
    return {"runs": runs}


def _execute_wide_n(inputs: Dict[str, Any]) -> List[Any]:
    configs = [config for config, _ in inputs["runs"]]
    return run_many(configs, max_workers=2, reducer=SummaryReducer(), exec_mode="coop")


def _verify_wide_n(inputs: Dict[str, Any], raw: List[Any]) -> Outcome:
    return _summary_outcome(raw, [rounds for _, rounds in inputs["runs"]])


# --------------------------------------------------------------- short_runs
#: Round cap for the adversarial plans.  Their drivers default to 30, which a
#: local-coin run exceeds with probability ~2e-4 -- one spurious "missed
#: termination" every few repeats at these run counts.
SHORT_ROUND_CAP = 500


def _prepare_short_runs(seed: int, tiny: bool) -> Dict[str, Any]:
    """About 650 runs, most of them in one-point plans with their own seeds.

    A plan shares one seed list between its points, and runs that share a
    seed share coin flips, so a 17-point plan over 16 seeds behaves like 16
    samples of the work, not 272: the total event count then moves 4% (one
    sigma) from one workload seed to the next.  Building the adversarial
    sweeps point by point makes every run an independent sample and halves
    that.
    """
    rng = _stream(seed, "short_runs")

    def seeds(count: int) -> List[int]:
        return _draw_seeds(rng, 1 if tiny else count)

    plans = [
        e2_majority_crash.plan(seeds=seeds(16)),
        e5_mm_comparison.plan(seeds=seeds(12), sizes=(8,), cluster_counts=(2,)),
    ]
    for name in scenario_names():
        for intensity in (0.0,) if name == "none" else e9_adversary.DEFAULT_INTENSITIES:
            plans.append(
                e9_adversary.plan(
                    seeds=seeds(16),
                    scenarios=(name,),
                    intensities=(intensity,),
                    round_cap=SHORT_ROUND_CAP,
                )
            )
    for name in ("chaos", "duplication-storm", "reorder-heavy"):
        plans.append(
            e9_adversary.plan(
                seeds=seeds(24),
                scenarios=(name,),
                intensities=(0.3,),
                round_cap=SHORT_ROUND_CAP,
                algorithm="mp-common-coin",
            )
        )
    for name in e11_resilience.resilience_scenario_names():
        for delay in ("empirical", "shifted-lognormal"):
            plans.append(
                e11_resilience.plan(
                    seeds=seeds(12), scenarios=(name,), delays=(delay,), round_cap=SHORT_ROUND_CAP
                )
            )
    plans.append(
        e11_resilience.plan(
            seeds=seeds(8),
            scenarios=("kill-during-recovery", "replica-loss-2"),
            delays=("empirical",),
            m=1,
            round_cap=SHORT_ROUND_CAP,
            algorithm="shared-memory",
        )
    )
    return {"plans": plans}


def _execute_short_runs(inputs: Dict[str, Any]) -> List[Dict[str, RunAggregate]]:
    return [run_plan(plan, max_workers=1, exec_mode="process") for plan in inputs["plans"]]


def _verify_short_runs(inputs: Dict[str, Any], raw: List[Dict[str, RunAggregate]]) -> Outcome:
    return _aggregate_outcome(inputs["plans"], raw)


# ---------------------------------------------------------------- steal_e2e
#: ``--seeds`` of the two-worker e9 sweep: 17 points x 48 = 816 runs.
STEAL_SEEDS = 48
_STEAL_WORKERS = ("a", "b")


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def _prepare_steal_e2e(seed: int, tiny: bool) -> Dict[str, Any]:
    """Build the CLI argument vectors and a fresh run directory.

    The CLI derives its consensus seeds from ``--seeds`` alone, so the
    workload seed only names the directory here.
    """
    seeds = 2 if tiny else STEAL_SEEDS
    out = WORK_DIR / f"steal-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workers = [
        _cli("run", "e9", "--seeds", str(seeds), "--steal", "--out", str(out))
        + ["--worker", worker, "--max-workers", "1"]
        for worker in _STEAL_WORKERS
    ]
    return {
        "out": out,
        "workers": workers,
        "merge": _cli("merge", str(out), "--report"),
        "env": _cli_env(),
        "plan": e9_adversary.plan(seeds=default_seeds(seeds)),
    }


def _execute_steal_e2e(inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Two concurrent workers, then the merge; first spawn to report on stdout."""
    started = time.perf_counter()
    procs = [
        subprocess.Popen(
            argv, env=inputs["env"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for argv in inputs["workers"]
    ]
    worker_logs = [proc.communicate() for proc in procs]
    workers_done = time.perf_counter()
    merge = subprocess.run(inputs["merge"], env=inputs["env"], capture_output=True, text=True)
    merged = time.perf_counter()
    return {
        "worker_codes": [proc.returncode for proc in procs],
        "worker_logs": worker_logs,
        "merge_code": merge.returncode,
        "report": merge.stdout,
        "merge_stderr": merge.stderr,
        "worker_cmd_s": workers_done - started,
        "merge_cmd_s": merged - workers_done,
    }


def _execute_steal_traced(inputs: Dict[str, Any]) -> Dict[str, Any]:
    """The same sweep in-process, where the tracer's wrappers can see it.

    Worker ``a`` is granted half the points, worker ``b`` takes the rest,
    one after the other; the merge and report run through the same
    functions the CLI calls.
    """
    plan = inputs["plan"]
    first_grant = math.ceil(len(plan.points) / 2)
    for worker, grant in zip(_STEAL_WORKERS, (first_grant, None)):
        run_work_stealing(plan, inputs["out"], worker=worker, max_workers=1, max_points=grant)
    merged = merge_stolen(inputs["out"], plan)
    report = e9_adversary.build_report(merged.plan, merged.aggregates).format()
    return {"worker_codes": [0, 0], "merge_code": 0, "report": report + "\n"}


def _verify_steal_e2e(inputs: Dict[str, Any], raw: Dict[str, Any]) -> Outcome:
    plan = inputs["plan"]
    out = inputs["out"]
    try:
        problems = []
        for worker, code in zip(_STEAL_WORKERS, raw["worker_codes"]):
            if code != 0:
                problems.append(f"worker {worker} exited {code}")
        merged = merge_stolen(out, plan)
        outcome = _aggregate_outcome([plan], [merged.aggregates])
        expected = e9_adversary.build_report(merged.plan, merged.aggregates).format()
        report = raw["report"]
        if raw["merge_code"] != 0 or report.strip() != expected.strip():
            problems.append(f"merge exited {raw['merge_code']} or its report differs from the fold")
        if "reproduction check: PASSED" not in report:
            problems.append("merged report is not PASSED")
        checkpoint_bytes = sum(path.stat().st_size for path in out.glob("point-*.pkl"))
        merger = IncrementalMerger(out, plan)
        started = time.perf_counter()
        while not merger.complete:
            if not merger.poll():
                problems.append(f"incremental merge stalled: {merger.last_error}")
                break
        drain_s = time.perf_counter() - started
        extra = {
            "coordinator.checkpoint_bytes": float(checkpoint_bytes),
            "obs.incremental_drain_s": drain_s,
        }
        if "worker_cmd_s" in raw:
            # The subprocess walls only exist on the CLI path; the traced
            # pass takes them from its untraced reference repeat.
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"], env=inputs["env"], check=True)
            extra["cli.import_s"] = time.perf_counter() - started
            extra["cli.worker_cmd_s"] = raw["worker_cmd_s"]
            extra["cli.merge_cmd_s"] = raw["merge_cmd_s"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    outcome.attempted += 1
    outcome.failed += len(problems)
    outcome.problems.extend(problems)
    outcome.digest = _digest([(outcome.digest, hashlib.sha256(report.encode("utf-8")).hexdigest())])
    outcome.extra = extra
    return outcome


# ----------------------------------------------------------------- registry
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("flood", _prepare_flood, _execute_flood, _verify_flood),
        Workload("deep_rounds", _prepare_deep_rounds, _execute_deep_rounds, _verify_deep_rounds),
        Workload("wide_n", _prepare_wide_n, _execute_wide_n, _verify_wide_n),
        Workload("short_runs", _prepare_short_runs, _execute_short_runs, _verify_short_runs),
        Workload(
            "steal_e2e",
            _prepare_steal_e2e,
            _execute_steal_e2e,
            _verify_steal_e2e,
            execute_traced=_execute_steal_traced,
        ),
    )
}
