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
    "E1": "44d772647b46c28548f4660d7c7fcb815627fc0f44f5cff2c7c9c174c70fc36c",
    "E2": "51e9dcae4593c10f5823084a201d9d6aa4c315373157ac43f2fdd5f3bfaf554b",
    "E3": "8a0281efaef6c7a6ddf8c841802132c56332ac730b5891cef405da86c38f1908",
    "E4": "63cac1bdf29ac50509fa6f6e53234fefcee703362a2451741725b2e5bcd89cc4",
    "E5": "329bf9cceb066c2ee668a2db2a4ea58754958efac82273236c9af30c444414ec",
    "E6": "93a95a93a6e75c1858cbc399cc24a523996965a574bc85d2c00e142f5798ac1d",
    "E7": "b69b839b6a82d8bc5a160602b8f2c1af37739679b459f46e1b2dacf3a52ef697",
    "E8": "e6ed16dce2ad802d4668aca8d88965a851bb5b611e300159a7a13c559952993a",
    "E8L": "db58699d911683216a8d0d46dbb671a238fe3f82cf2972705a327152730d08e2",
    "E9": "e74965c43d1791c811902e3f001ea1b0b4634b6c97b9e725e589795e84be1513",
    "E10": "e5d9412ce6049c9a9756dcc7540ee940d574f4ddad13ee6f9d8614815d7e9672",
    "E11": "caeaa18a8ea3d828a0267fc8354055bc06c3801544c84869af9b0c3940864d64",
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
