"""Documentation health: front-door files exist, links resolve, commands parse."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_markdown_links", REPO_ROOT / "scripts" / "check_markdown_links.py"
)
check_markdown_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_markdown_links)

_spec = importlib.util.spec_from_file_location(
    "check_unused_imports", REPO_ROOT / "scripts" / "check_unused_imports.py"
)
check_unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_unused_imports)


def test_front_door_documents_exist():
    for relative in (
        "README.md",
        "docs/architecture.md",
        "docs/distributed.md",
        "docs/experiments.md",
        "docs/observability.md",
        "docs/simulator.md",
        "examples/README.md",
        "src/repro/harness/README.md",
    ):
        assert (REPO_ROOT / relative).is_file(), f"missing documentation file {relative}"


def test_front_door_documents_are_on_the_checked_surface():
    surface = {path.relative_to(REPO_ROOT).as_posix() for path in check_markdown_links.doc_files(REPO_ROOT)}
    assert {
        "README.md",
        "ROADMAP.md",
        "docs/architecture.md",
        "docs/distributed.md",
        "docs/experiments.md",
        "examples/README.md",
    } <= surface


def test_all_relative_markdown_links_resolve():
    broken = check_markdown_links.broken_links(REPO_ROOT)
    assert broken == [], "broken markdown links: " + ", ".join(
        f"{md.name} -> {target}" for md, target in broken
    )


def test_experiments_doc_covers_all_drivers():
    text = (REPO_ROOT / "docs" / "experiments.md").read_text()
    for experiment in (
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
    ):
        assert f"## {experiment} — " in text, f"docs/experiments.md lacks a section for {experiment}"
    assert "--shard" in text and "merge" in text  # the sharded form is documented
    assert "--scenario" in text  # e9/e10/e11's scenario restriction is documented
    assert "fit-delays" in text  # e11's empirical-delay workflow is documented


def test_simulator_doc_covers_the_internals():
    text = (REPO_ROOT / "docs" / "simulator.md").read_text()
    for topic in (
        "event loop",
        "effect",
        "delay model",
        "adversary",
        # The trace-driven delay models and their fitting workflow.
        "empiricaldelay",
        "tracereplaydelay",
        "fit-delays",
        "sample_batch",
    ):
        assert topic in text.lower(), f"docs/simulator.md lacks the {topic!r} topic"


def test_distributed_doc_covers_the_protocol():
    text = (REPO_ROOT / "docs" / "distributed.md").read_text().lower()
    for topic in (
        "lease",
        "steal",
        "heartbeat",
        "manifest version",
        "checkpoint",
        "clock skew",
        "killed",
        "bit-identical",
        "--steal",
    ):
        assert topic in text, f"docs/distributed.md lacks the {topic!r} topic"


def test_observability_doc_covers_the_surface():
    text = (REPO_ROOT / "docs" / "observability.md").read_text().lower()
    for topic in (
        "jsonl",
        "trace_sink",
        "telemetry",
        "/status",
        "/progress",
        "/workers",
        "/aggregate",
        "--watch",
        "--wait",
        "bit-identical",
        "incremental",
    ):
        assert topic in text, f"docs/observability.md lacks the {topic!r} topic"


def test_architecture_doc_maps_every_package():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    packages = (
        "sim", "network", "sharedmem", "coins", "cluster", "core",
        "baselines", "mm", "adversary", "harness", "experiments", "obs",
        "cli",
    )
    for package in packages:
        assert f"repro.{package}" in text, f"docs/architecture.md lacks repro.{package}"
    for deep_dive in ("simulator.md", "distributed.md", "experiments.md"):
        assert deep_dive in text, f"docs/architecture.md does not link {deep_dive}"


#: Documentation whose ``python -m repro ...`` lines must parse against the
#: real argparse surface -- the docs cannot drift from the CLI silently.
INVOCATION_DOCS = (
    "README.md",
    "docs/experiments.md",
    "docs/distributed.md",
    "docs/observability.md",
    "docs/simulator.md",
)


def documented_invocations():
    """Every concrete ``python -m repro`` command line on the doc surface."""
    commands = []
    for relative in INVOCATION_DOCS:
        for line in (REPO_ROOT / relative).read_text().splitlines():
            stripped = line.strip()
            if not stripped.startswith("python -m repro"):
                continue
            if "<" in stripped or "…" in stripped:
                continue  # placeholder forms like `run <experiment>`
            argv = shlex.split(stripped, comments=True)[3:]  # drop `python -m repro`
            commands.append((relative, stripped, argv))
    return commands


def test_documented_invocations_match_the_argparse_surface():
    commands = documented_invocations()
    assert len(commands) >= 12, "the docs should show plenty of concrete invocations"
    assert any("--steal" in argv for _, _, argv in commands)
    assert any("--shard" in argv for _, _, argv in commands)
    assert any("fit-delays" in argv for _, _, argv in commands)
    for relative, line, argv in commands:
        parser = build_parser()
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{relative} documents a command the CLI rejects: {line}")


def test_lint_fallback_finds_unused_imports_and_the_tree_has_none(tmp_path, capsys):
    """``make lint`` without ruff still fails on an import nothing reads."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os, sys\n"
        "import probe  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "from pathlib import Path\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['Dict']\n"
        "def main(where: 'Path') -> None:\n"
        "    print(sys.argv)\n"
    )
    assert check_unused_imports.unused_imports(sample) == [(2, "json"), (3, "os"), (5, "List")]
    assert check_unused_imports.main() == 0, capsys.readouterr().out
