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
    "E1": "bc481c997c74ad9ce394ac00b7f78c7c7f044416f2c891bf8b1cb7c55878cc21",
    "E2": "4fa45fb0c0d640b65d551703dc526ddf917d2d81295e6a829d7accfc03a01671",
    "E3": "891765cd6bc8534f8df933554f10be462a1cfe59f1930051679a423edc0e3fd2",
    "E4": "f99fbe1792d6065667b59dbe585f27e9b896134f5877a9994aba95a8857ef4a0",
    "E5": "8c9fed6ad090e9f47350f95ce5aa51574bb51eda94f132eb61a89289401a851f",
    "E6": "2c8495cb37f352ec60c77dd5b39bffd3ef75afc5fd4020e2209830668916ebec",
    "E7": "c2934f9babee8653ddb789f699923c8c35ee1ad3d5b9263636f8bf5cc9e1fa67",
    "E8": "7d29819c51ffbaa860e6ded4abe5e7b46553debbfec5d8537b71e42b1b61ff1d",
    "E8L": "05290022b15ce5a7356f0e669b8d01e0da01385392f10c267ab1921dfec391c9",
    "E9": "5f18ef04e7a53f6a4d2c08e6eec017b3365b6daee876fe8a0e2408484cdf85cf",
    "E10": "6be99b9da580fd2408145bc673538e473c9907f698599eb7a12bdf5d06ce46f7",
    "E11": "d8b91cbcf2c03e517bbe85c1e44a80023c1fdd9b385231fe022abd28061a3902",
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
