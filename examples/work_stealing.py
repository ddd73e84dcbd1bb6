"""Work stealing: a worker dies holding a lease, another steals its point.

Walks the dynamic-scheduling lifecycle on a tiny E1 sweep (both Figure 1
decompositions x both hybrid algorithms, 3 seeds):

1. worker ``mayfly`` computes one sweep point, claims its next point via an
   atomic lease file -- and is "killed" before computing it, so the lease's
   heartbeat stops and no checkpoint appears;
2. worker ``steady`` runs the *same* command over the same directory: it
   claims the never-started points, watches ``mayfly``'s lease expire, and
   **steals** the orphaned point (lease generation 0 -> 1);
3. ``python -m repro status``-style counts show the directory's progress;
4. the merged result is verified *bit-identical* to running the whole
   experiment on one host -- stolen points keep their unsharded summary
   indices, so theft never changes a single bit of the answer.

In real use both workers are just ``python -m repro run e1 --steal --out
runs/`` on different machines; see docs/distributed.md for the protocol.

Run with:  python examples/work_stealing.py
"""

import tempfile
import time

from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds
from repro.harness.coordinator import (
    merge_stolen,
    run_work_stealing,
    steal_status,
    try_claim,
)
from repro.harness.distributed import ShardSpec, checkpoint_path, run_plan

SEEDS = default_seeds(3)
TTL = 0.2  # tiny lease so the demo does not wait; real fleets use ~60 s


def main() -> None:
    plan = e1_figure1.plan(seeds=SEEDS)
    print(f"plan {plan.key}: {len(plan.points)} sweep points x {len(plan.seeds)} seeds "
          f"= {plan.total_runs} runs  (fingerprint {plan.fingerprint()[:12]}...)")
    print()

    with tempfile.TemporaryDirectory() as out_dir:
        # --- 1) mayfly computes one point, claims another, and "dies" ------
        mayfly = run_work_stealing(
            plan, out_dir, worker="mayfly", lease_ttl=TTL, max_points=1
        )
        victim_point = next(
            pi for pi in range(len(plan.points))
            if not checkpoint_path(out_dir, ShardSpec(1, 1), pi).exists()
        )
        lease = try_claim(out_dir, plan, victim_point, "mayfly", TTL)
        assert lease is not None
        print(f"mayfly computed {mayfly.executed} then died holding a lease on "
              f"{plan.points[victim_point].label!r} (no heartbeat, no checkpoint)")

        time.sleep(2 * TTL)  # the dead worker's lease expires
        before = steal_status(out_dir)
        print(f"before stealing: {before.done}/{before.points_total} points done, "
              f"{before.orphaned} orphaned (expired lease), {before.unclaimed} unclaimed")
        print()

        # --- 2) steady claims the rest and steals the orphaned point -------
        steady = run_work_stealing(plan, out_dir, worker="steady", lease_ttl=TTL)
        print(f"steady computed {len(steady.executed)} fresh points and stole "
              f"{steady.stolen} from the dead worker")
        if not steady.stolen:
            raise SystemExit("expected the orphaned point to be stolen")

        # --- 3) the directory tells the whole story ------------------------
        after = steal_status(out_dir)
        print(f"after:  {after.done}/{after.points_total} points done "
              f"({after.stolen} changed hands), workers: "
              + ", ".join(f"{row['worker']} computed {row['computed']}" for row in after.workers))

        # --- 4) merge == single host, bit for bit --------------------------
        merged = merge_stolen(out_dir, e1_figure1.plan(seeds=SEEDS))
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
