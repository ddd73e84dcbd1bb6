"""Sharded sweep: split one experiment over "machines", kill one, resume, merge.

Walks the full distributed lifecycle on a tiny E1 sweep (both Figure 1
decompositions x both hybrid algorithms, 3 seeds):

1. build the experiment's :class:`~repro.harness.distributed.SweepPlan` --
   pure data, identical on every host that builds it;
2. run shard 1/2 and shard 2/2 into a shared output directory (here two
   calls in one process; in real use, two machines running
   ``python -m repro run e1 --shard i/2 --out runs/``);
3. simulate a machine dying mid-shard by deleting one of shard 2's
   per-point checkpoints, then re-run shard 2: only the lost point is
   recomputed, the surviving checkpoints are reused;
4. merge the shards and verify the result is *bit-identical* to running
   the whole experiment on one host.

Run with:  python examples/sharded_sweep.py
"""

import tempfile

from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds
from repro.harness.distributed import (
    ShardSpec,
    checkpoint_path,
    merge_shards,
    run_plan,
    run_shard,
)

SEEDS = default_seeds(3)


def main() -> None:
    plan = e1_figure1.plan(seeds=SEEDS)
    print(f"plan {plan.key}: {len(plan.points)} sweep points x {len(plan.seeds)} seeds "
          f"= {plan.total_runs} runs  (fingerprint {plan.fingerprint()[:12]}...)")
    print()

    with tempfile.TemporaryDirectory() as out_dir:
        # --- 1) two "machines" each run their half -------------------------
        for index in (1, 2):
            result = run_shard(plan, ShardSpec(index, 2), out_dir)
            print(f"shard {index}/2 ran {result.runs_executed} runs "
                  f"({len(result.executed)} sweep points checkpointed)")

        # --- 2) machine 2 "dies" and loses one checkpoint ------------------
        lost = checkpoint_path(out_dir, ShardSpec(2, 2), 0)
        lost.unlink()
        print(f"\nsimulated crash: deleted {lost.name}")

        # --- 3) re-running the same command resumes, not restarts ----------
        resumed = run_shard(plan, ShardSpec(2, 2), out_dir)
        print(f"shard 2/2 re-run: {len(resumed.already_done)} points resumed from "
              f"checkpoints, {len(resumed.executed)} recomputed "
              f"({resumed.runs_executed} runs instead of "
              f"{resumed.runs_executed + resumed.runs_reused})")

        # --- 4) merge == single host, bit for bit --------------------------
        merged = merge_shards(out_dir, e1_figure1.plan(seeds=SEEDS))
        report = e1_figure1.build_report(merged.plan, merged.aggregates)

    direct_aggregates = run_plan(e1_figure1.plan(seeds=SEEDS))
    direct = e1_figure1.build_report(plan, direct_aggregates)
    identical = (
        report.format(precision=12) == direct.format(precision=12)
        and all(
            merged.aggregates[point.label] == direct_aggregates[point.label]
            for point in plan.points
        )
    )
    print(f"\nmerged report equals the single-host run bit-for-bit: {identical}")
    print()
    print(report.format())
    if not identical:  # make the regression visible to CI's examples-smoke job
        raise SystemExit(1)


if __name__ == "__main__":
    main()
