"""What every experiment driver exposes, and the plans it builds by default.

A plan's fingerprint is what every ``--shard`` / ``--steal`` directory
records, so a driver change that moves one strands the directories already
written.  The literals below are the default plans' fingerprints; a change
that means to move one must say so here.  The ``ast`` gates below hold a
driver to ``plan`` + ``build_report`` + ``PAPER_CLAIM``, executed by
``common.run_planned`` alone.
"""

import ast

import pytest

from repro.experiments import ALL_EXPERIMENTS
from tests.helpers import SRC, count_calls

DEFAULT_FINGERPRINTS = {
    "E1": "091b2a71299ac355e3c6e6a9a874608016846300d089a4a9f1978d6efcd82161",
    "E2": "c69e58bd3efc7ba4f0f3989a4885914f4d18a703ea56cf4d2b4dd7f4796a651b",
    "E3": "242b5cd407326c6c2268864a48890f6df92475d5c7610c0ee8a7024474f7a0e3",
    "E4": "b7e663da2f69c5ffbd79a409f1add6d530b6c766652b69f3cd221cdaa0d644d3",
    "E5": "42ddbf6aa5a10c1ddf6847a03db7978558f3e2a7df5195a06894db0f3e64e5f7",
    "E6": "42448184a9e34ef3096a207e66b5344ca944b380d1eeac7526551b3afd5e34e7",
    "E7": "60583d985506b53f2d3e8c3d8506eac57343690bfe07683a11a0a5c2b2edd75d",
    "E8": "0ea77894a04c23cf8c360112588b0c73812d598dae610fc4b3bc6aa203de1f2c",
    "E8L": "5b6f438d6502411fde1ca8eb77efa669fdfd58f51b954ad3c0c56658cd3147cb",
    "E9": "97f9ba2f896f0acea59fc588c22a83c048deb9045d32f91ba563caecf0fc1327",
    "E10": "3885ff60dc9b77bc154c4d3a6e0947735ae0ad0c0692069ef3c6202fcc680660",
    "E11": "80f803c25cda9429a25f66c3cab08445014bdb75404466dc4cf4740ffdba45c0",
}


def test_every_driver_is_pinned():
    assert sorted(DEFAULT_FINGERPRINTS) == sorted(ALL_EXPERIMENTS)


@pytest.mark.parametrize("key", sorted(DEFAULT_FINGERPRINTS))
def test_default_plan_fingerprint_is_pinned(key):
    plan = ALL_EXPERIMENTS[key].plan()
    assert plan.key == key
    assert plan.fingerprint() == DEFAULT_FINGERPRINTS[key]


# ------------------------------------------------------------ the surface
EXPERIMENTS = SRC / "experiments"
DRIVER_FILES = sorted(EXPERIMENTS.glob("e*.py"))


def _top_level_names(path):
    """Names a module binds at its top level: functions, classes, assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def _has_main_block(path):
    return any(
        isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
        for node in ast.parse(path.read_text()).body
    )


@pytest.mark.parametrize("path", DRIVER_FILES, ids=lambda path: path.stem)
def test_a_driver_is_a_plan_and_a_report(path):
    """Each driver states its claim as ``plan`` + ``build_report``, and nothing runs it itself.

    ``common.run_planned`` is the one executor; a ``run()`` or ``main()``
    would restate ``plan``'s signature by hand.
    """
    names = _top_level_names(path)
    assert {"plan", "build_report", "PAPER_CLAIM"} <= names
    assert names.isdisjoint({"run", "run_large", "plan_large", "main"})
    assert not _has_main_block(path)


def test_one_executor_for_every_driver():
    assert len(DRIVER_FILES) == len(ALL_EXPERIMENTS)
    calls = {path.name: count_calls(path, "run_plan") for path in EXPERIMENTS.glob("*.py")}
    assert {name: count for name, count in calls.items() if count} == {"common.py": 1}


def test_the_cli_does_not_know_which_experiment_sweeps_what():
    """``--scenario`` is checked against the resolved driver's ``SCENARIOS``."""
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "inspect" not in imported
    keys = {
        node.value.upper()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert keys.isdisjoint({"E9", "E10", "E11"})
