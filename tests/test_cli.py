"""The ``python -m repro`` CLI: run, shard, resume, status and merge."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import parallel
from repro.experiments import e1_figure1
from repro.experiments.common import default_seeds

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
    direct = e1_figure1.run(seeds=default_seeds(2), max_workers=1)
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
    assert "0 executed" in second and "computed" not in second


def test_status_shows_progress(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    code, out, _ = run_cli(capsys, "status", out_dir)
    assert code == 0
    assert "1/2" in out and "4/4" in out


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
    direct = e9_adversary.run(
        seeds=default_seeds(2), scenarios=("lossy-links",), max_workers=1
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


def test_unknown_scenario_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e9", "--scenario", "no-such-fault")
    assert code == 2
    assert "unknown scenario" in err and "lossy-links" in err


def test_shard_without_out_is_an_error(capsys):
    code, _, err = run_cli(capsys, "run", "e1", "--shard", "1/2")
    assert code == 2
    assert "error:" in err and "--out" in err


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
    assert "no shard manifests" in err


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
    assert "w1" in out  # the per-worker table
    assert "busy " in out and ", gc " in out  # the telemetry cell


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


def test_steal_directory_refuses_static_shards(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    run_cli(capsys, "run", "e1", *E1_ARGS, "--shard", "1/2", "--out", out_dir)
    code, _, err = run_cli(capsys, "run", "e1", *STEAL_ARGS, "--out", out_dir)
    assert code == 2
    assert "static" in err


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
