"""The ``python -m repro`` CLI: run, shard, resume, status and merge."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import parallel
from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds, run_planned
from repro.harness.coordinator import SweepWriter, run_work_stealing
from repro.harness.distributed import ShardError, ShardSpec, run_shard

E1_ARGS = ["--seeds", "2", "--max-workers", "1"]


def run_cli(capsys, *argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names_every_experiment(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for experiment in ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"):
        assert experiment in out


def test_run_prints_the_driver_report(capsys):
    code, out, _ = run_cli(capsys, "run", "e1", *E1_ARGS)
    assert code == 0
    direct = run_planned(
        e1_figure1.plan(seeds=default_seeds(2)), e1_figure1.build_report, max_workers=1
    )
    assert out.strip() == direct.format().strip()


def test_shard_merge_report_equals_unsharded_run(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    for shard in ("2/2", "1/2"):  # out of order on purpose
        code, _, _ = run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", shard, "--out", out_dir)
        assert code == 0
    code, merged_out, _ = run_cli(capsys, "merge", out_dir, "--report")
    assert code == 0
    code, direct_out, _ = run_cli(capsys, "run", "e1", *E1_ARGS)
    assert code == 0
    assert merged_out == direct_out


def test_rerun_of_a_finished_shard_resumes(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    code, first, _ = run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    assert code == 0 and "resumed" in first
    code, second, _ = run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    assert code == 0
    assert "0 executed" in second and "0 points computed" in second
    assert "  executed " not in second  # no point's line says it was computed again


def test_status_shows_progress(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    code, out, _ = run_cli(capsys, "status", out_dir)
    assert code == 0
    assert "1/2" in out and "4/4" in out
    # Shard 1/2 holds all 4 of its points; no point is done until shard 2/2 lands.
    assert "checkpoints by shard: 1/2 4/4, 2/2 0/4" in out
    assert "0/4 points done" in out
    assert "worker shard-1of2 (shard 1/2): 4 computed" in out


def test_status_of_killed_shard_shows_partial_points(tmp_path, capsys, monkeypatch):
    out_dir = str(tmp_path / "runs")
    real_run_many = parallel.run_many
    calls = {"count": 0}

    def dies_after_one_point(*args, **kwargs):
        if calls["count"] >= 1:
            raise KeyboardInterrupt("simulated kill")
        calls["count"] += 1
        return real_run_many(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_many", dies_after_one_point)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "e1", *E1_ARGS, "--shard", "1/1", "--out", out_dir])
    monkeypatch.setattr(parallel, "run_many", real_run_many)
    capsys.readouterr()

    code, out, _ = run_cli(capsys, "status", out_dir)
    assert code == 0
    assert "1/4" in out  # 1 of the plan's 4 points done, not "1/1"
    assert "1/4 points done" in out and "checkpoints by shard: 1/1 1/4" in out
    code, _, err = run_cli(capsys, "merge", out_dir)
    assert code == 2 and "resume it by re-running" in err


def test_merge_summary_without_report_flag(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *E1_ARGS, "--out", out_dir)  # --out alone = shard 1/1
    code, out, _ = run_cli(capsys, "merge", out_dir)
    assert code == 0
    assert "figure1-right/hybrid-local-coin" in out
    assert "termination_rate" in out


E9_ARGS = ["--seeds", "2", "--max-workers", "1", "--scenario", "lossy-links"]


def test_run_e9_with_scenario_restriction(capsys):
    from repro.experiments import e9_adversary

    code, out, _ = run_cli(capsys, "run", "e9", *E9_ARGS)
    assert code == 0
    direct = run_planned(
        e9_adversary.plan(seeds=default_seeds(2), scenarios=("lossy-links",)),
        e9_adversary.build_report,
        max_workers=1,
    )
    assert out.strip() == direct.format().strip()


def test_scenario_restricted_e9_shards_and_merges(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    for shard in ("2/2", "1/2"):
        code, _, _ = run_cli(capsys, "run", "e9", *E9_ARGS, "--shard", shard, "--out", out_dir)
        assert code == 0
    code, merged_out, _ = run_cli(capsys, "merge", out_dir, "--report")
    assert code == 0
    code, direct_out, _ = run_cli(capsys, "run", "e9", *E9_ARGS)
    assert code == 0
    assert merged_out == direct_out


def test_scenario_on_non_e9_experiment_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e1", "--scenario", "lossy-links")
    assert code == 2
    assert "does not take --scenario" in err


@pytest.mark.parametrize(
    "experiment, scenario, error",
    [
        ("e1", "bogus", "experiment 'e1' does not take --scenario"),
        ("e99", "bogus", "unknown experiment 'e99'"),
        (
            "e10",
            "lossy-links",
            "unknown scenario 'lossy-links' for e10; choose from: byzantine-tamper, "
            "delay-pivotal, split-rounds, target-coin, target-coin-omit\n",
        ),
        (
            "e11",
            "lossy-links",
            "unknown scenario 'lossy-links' for e11; choose from: kill-during-recovery, "
            "none, replica-loss-1, replica-loss-2, replica-loss-3\n",
        ),
    ],
)
def test_scenario_is_checked_against_the_resolved_experiment(capsys, experiment, scenario, error):
    code, _, err = run_cli(capsys, "run", experiment, "--scenario", scenario)
    assert code == 2
    assert err.startswith(f"error: {error}")


def test_unknown_scenario_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e9", "--scenario", "no-such-fault")
    assert code == 2
    assert "unknown scenario" in err and "lossy-links" in err


def test_shard_without_out_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e1", "--shard", "1/2")
    assert code == 2
    assert "error:" in err and "--out" in err


@pytest.mark.parametrize("mode", [[], ["--out"], ["--shard", "1/2", "--out"], ["--steal", "--out"]])
def test_max_workers_below_one_is_refused_before_anything_is_written(capsys, tmp_path, mode):
    out_dir = tmp_path / "runs"
    where = [*mode, str(out_dir)] if mode else []
    code, _, err = run_cli(capsys, "run", "e1", "--seeds", "2", "--max-workers", "0", *where)
    assert code == 2
    assert "error:" in err and "--max-workers" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_the_writer_refuses_max_workers_below_one_before_touching_the_directory(tmp_path):
    plan = e1_figure1.plan(seeds=default_seeds(2))
    out_dir = tmp_path / "runs"
    with pytest.raises(ShardError, match="max_workers must be >= 1, got 0"):
        run_shard(plan, ShardSpec(1, 2), out_dir, max_workers=0)
    with pytest.raises(ShardError, match="max_workers must be >= 1, got -1"):
        run_work_stealing(plan, out_dir, worker="w", max_workers=-1)
    assert not out_dir.exists()


def test_unknown_experiment_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e99")
    assert code == 2
    assert "unknown experiment" in err


def test_bad_shard_spec_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "e1", "--shard", "4/2", "--out", str(tmp_path))
    assert code == 2
    assert "shard index" in err


def test_merge_of_empty_directory_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "merge", str(tmp_path))
    assert code == 2
    assert "no plan header" in err


def test_mismatched_shard_seeds_are_rejected_at_merge(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    code, _, _ = run_cli(capsys, "run", "e1", "--seeds", "2", "--max-workers", "1",
                         "--shard", "1/2", "--out", out_dir)
    assert code == 0
    code, _, err = run_cli(capsys, "run", "e1", "--seeds", "3", "--max-workers", "1",
                           "--shard", "2/2", "--out", out_dir)
    assert code == 2
    assert "different plan" in err


STEAL_ARGS = ["--seeds", "2", "--max-workers", "1", "--steal"]


def test_steal_merge_report_equals_unsharded_run(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    for worker in ("a", "b"):
        code, _, _ = run_cli(
            capsys, "run", "e1", *STEAL_ARGS, "--worker", worker,
            "--max-points", "2", "--out", out_dir,
        )
        assert code == 0
    code, merged_out, _ = run_cli(capsys, "merge", out_dir, "--report")
    assert code == 0
    code, direct_out, _ = run_cli(capsys, "run", "e1", *E1_ARGS)
    assert code == 0
    assert merged_out == direct_out


def test_steal_status_shows_lease_counts(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    code, _, _ = run_cli(
        capsys, "run", "e1", *STEAL_ARGS, "--worker", "w1",
        "--max-points", "1", "--out", out_dir,
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "status", out_dir)
    assert code == 0
    assert "1/4 points done" in out
    for word in ("stolen", "leased", "orphaned", "unclaimed"):
        assert word in out
    assert "1/4 points done (0 stolen), 0 leased, 0 orphaned, 3 unclaimed" in out
    assert "w1" in out  # the per-worker lines
    assert "busy " in out and ", gc " in out  # the fleet telemetry digest


def test_steal_worker_reports_already_done_points(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *STEAL_ARGS, "--worker", "w1", "--out", out_dir)
    code, out, _ = run_cli(
        capsys, "run", "e1", *STEAL_ARGS, "--worker", "w2", "--out", out_dir
    )
    assert code == 0
    assert "0 points computed" in out and "4 already done" in out


def test_steal_merge_of_incomplete_run_is_an_error(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(
        capsys, "run", "e1", *STEAL_ARGS, "--worker", "w1",
        "--max-points", "1", "--out", out_dir,
    )
    code, _, err = run_cli(capsys, "merge", out_dir)
    assert code == 2
    assert "incomplete" in err and "unclaimed" in err


def test_steal_e9_scenario_merge_equals_direct_run(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    code, _, _ = run_cli(
        capsys, "run", "e9", *E9_ARGS, "--steal", "--worker", "w1", "--out", out_dir
    )
    assert code == 0
    code, merged_out, _ = run_cli(capsys, "merge", out_dir, "--report")
    assert code == 0
    code, direct_out, _ = run_cli(capsys, "run", "e9", *E9_ARGS)
    assert code == 0
    assert merged_out == direct_out


def test_a_steal_worker_may_not_take_a_static_shards_name(tmp_path, capsys):
    """A ``--steal --worker shard-1of1`` worker and a ``--shard 1/1`` run in one
    directory would write one manifest, ``worker-shard-1of1.json``, each
    overwriting the other's counts: the steal worker is refused by name."""
    out_dir = tmp_path / "runs"
    code, _, err = run_cli(
        capsys, "run", "e1", *STEAL_ARGS, "--worker", "shard-1of1",
        "--max-points", "2", "--out", str(out_dir),
    )
    assert code == 2
    assert "worker name 'shard-1of1' is reserved" in err and "shard-IofK" in err
    assert not out_dir.exists(), "a refused worker writes nothing"
    code, _, _ = run_cli(
        capsys, "run", "e1", "--seeds", "2", "--max-workers", "1",
        "--shard", "1/1", "--out", str(out_dir),
    )
    assert code == 0
    manifest = (out_dir / "worker-shard-1of1.json").read_bytes()
    code, _, err = run_cli(
        capsys, "run", "e1", *STEAL_ARGS, "--worker", "shard 1of1", "--out", str(out_dir),
    )
    assert code == 2 and "'shard-1of1' is reserved" in err  # sanitized, then refused
    assert (out_dir / "worker-shard-1of1.json").read_bytes() == manifest
    code, out, _ = run_cli(capsys, "status", str(out_dir))
    assert code == 0 and "4/4 points done" in out
    plan = e1_figure1.plan(seeds=default_seeds(2))
    for name in ("shard-1of1x", "my-shard-1of1", "shard-1"):  # only the exact form is reserved
        assert SweepWriter(plan, tmp_path / name, worker=name).worker == name


def test_steal_with_shard_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "e1", "--steal", "--shard", "1/2", "--out", str(tmp_path)
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_steal_without_out_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e1", "--steal")
    assert code == 2
    assert "--out" in err


def test_steal_flags_without_steal_are_an_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "e1", "--worker", "w1", "--out", str(tmp_path)
    )
    assert code == 2
    assert "only apply with --steal" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--lease-ttl", "nan"], "lease ttl"),
        (["--lease-ttl", "inf"], "lease ttl"),
        (["--wait", "--poll-interval", "nan"], "poll interval"),
        (["--wait", "--poll-interval", "inf"], "poll interval"),
    ],
)
def test_steal_refuses_nonfinite_durations(tmp_path, capsys, flags, named):
    out_dir = tmp_path / "runs"
    code, _, err = run_cli(capsys, "run", "e1", *STEAL_ARGS, *flags, "--out", str(out_dir))
    assert code == 2
    assert f"{named} must be a finite number of seconds > 0" in err
    assert not out_dir.exists()


def test_steal_directory_refuses_static_shards(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    code, _, err = run_cli(capsys, "run", "e1", *STEAL_ARGS, "--out", out_dir)
    assert code == 2
    assert "plan.json splits the plan into 2 shard(s)" in err and "shard 1/1" in err


def test_python_dash_m_entry_point():
    """`python -m repro` resolves through __main__.py in a real subprocess."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, env=env, cwd=str(repo_root), timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "e8" in completed.stdout


# ------------------------------------------------------------- schedule search
def test_search_replay_of_safe_token_is_clean(capsys):
    code, out, _ = run_cli(capsys, "search", "--replay", "v1/ben-or/n4/s11/one-dissenter/3")
    assert code == 0
    assert "ran clean" in out


def test_search_replay_reproduces_the_planted_violation(capsys):
    token = "v1/planted-ben-or/n4/s11/one-dissenter/3"
    code, out, _ = run_cli(capsys, "search", "--replay", token)
    assert code == 1
    assert "VIOLATION reproduced" in out
    assert "agreement" in out


def test_search_finds_the_planted_bug_and_prints_its_token(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--algorithm", "planted-ben-or", "--budget", "50", "--seed", "11"
    )
    assert code == 1
    assert "replay token: v1/planted-ben-or/n4/s11/one-dissenter/" in out
    assert "--replay" in out  # the reproduce hint


def test_search_on_a_real_algorithm_is_clean(capsys):
    code, out, _ = run_cli(capsys, "search", "--algorithm", "ben-or", "--budget", "10")
    assert code == 0
    assert "no violation" in out


def test_search_says_which_way_it_stopped(capsys):
    args = ("search", "--algorithm", "shared-memory", "--n", "3", "--budget", "1000")
    code, out, _ = run_cli(capsys, *args, "--fanout", "2")
    assert code == 0
    assert (
        "no violation in 64 schedules (not exhausted: 21 alternatives cut by the caps); "
        "depths 6:64; fanouts 2:192 3:192" in out
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "no violation in 216 schedules (space exhausted); depths 6:216; fanouts 2:648 3:648" in out


def test_search_malformed_replay_token_is_an_error(capsys):
    code, _, err = run_cli(capsys, "search", "--replay", "not-a-token")
    assert code == 2
    assert "malformed replay token" in err


def test_search_unknown_algorithm_is_an_error(capsys):
    code, _, err = run_cli(capsys, "search", "--algorithm", "raft")
    assert code == 2
    assert "unknown algorithm" in err


def test_search_bad_budget_is_an_error(capsys):
    code, _, err = run_cli(capsys, "search", "--algorithm", "ben-or", "--budget", "0")
    assert code == 2
    assert "budget" in err
