"""Start-up import graphs, counted not timed, and the public surface they keep.

Every invocation of ``python -m repro`` is a fresh interpreter, so what a
command imports is what it pays before its first event.  Each case here runs
one command in a fresh interpreter, in-process, and reads ``sys.modules``
afterwards: a command loads what it uses and nothing else.  No stopwatch is
involved; every case fails on a tree whose packages import eagerly.
"""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ["repro"] + [
    f"repro.{path.parent.name}" for path in sorted((ROOT / "src" / "repro").glob("*/__init__.py"))
]
DRIVERS = {
    f"repro.experiments.{name}" for name in repro.experiments.__all__ if re.match(r"e\d", name)
}
#: What no command but its own may load.
NEVER_ON_THE_SWEEP_PATH = ("numpy", "repro.search", "repro.obs.serve", "http.server")
#: What a single-worker run has no use for: the pool and what it drags in.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def fresh_python(body, *argv):
    """Run ``body`` in a new interpreter; its stdout, stderr and ``sys.modules``."""
    code = "import json, sys\n" + body + "\nprint(json.dumps(sorted(sys.modules)))\n"
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + (os.pathsep + inherited if inherited else ""),
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    *output, modules = done.stdout.splitlines()
    return "\n".join(output), done.stderr, set(json.loads(modules))


def cli(*argv, expect=0):
    """One CLI command run in-process in a fresh interpreter."""
    body = (
        "from repro.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "assert code == int(sys.argv[1]), code"
    )
    return fresh_python(body, str(expect), *argv)


def loaded(modules, *prefixes):
    """The loaded modules that are, or live under, one of ``prefixes``."""
    return sorted(
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


@pytest.fixture(scope="module")
def steal_run(tmp_path_factory):
    """A finished one-worker e9 steal directory and what the worker imported."""
    out = tmp_path_factory.mktemp("startup") / "runs"
    argv = ["run", "e9", "--seeds", "1", "--scenario", "lossy-links", "--steal"]
    _, _, modules = cli(*argv, "--max-workers", "1", "--worker", "solo", "--out", str(out))
    return out, modules


# ------------------------------------------------------------ import graphs
@pytest.mark.parametrize("body", ["import repro", "import repro.cli; repro.cli.build_parser()"])
def test_package_and_parser_load_no_simulator(body):
    _, _, modules = fresh_python(body)
    heavy = ("repro.sim.kernel", "repro.adversary", *NEVER_ON_THE_SWEEP_PATH, *DRIVERS)
    assert loaded(modules, *heavy) == []


def test_steal_worker_loads_its_driver_and_no_pool(steal_run):
    _, modules = steal_run
    assert loaded(modules, *DRIVERS) == ["repro.experiments.e9_adversary"]
    assert "repro.sim.kernel" in modules  # it did run
    assert loaded(modules, *NEVER_ON_THE_SWEEP_PATH, *POOL_MODULES) == []


def test_merge_loads_the_recorded_driver_only(steal_run):
    out, _ = steal_run
    report, _, modules = cli("merge", str(out), "--report")
    assert "reproduction check: PASSED" in report
    assert loaded(modules, *DRIVERS) == ["repro.experiments.e9_adversary"]
    assert loaded(modules, *NEVER_ON_THE_SWEEP_PATH, *POOL_MODULES) == []


def test_status_reads_the_directory_without_the_simulator(steal_run):
    out, _ = steal_run
    text, _, modules = cli("status", str(out))
    assert "points done" in text and "solo" in text
    assert "repro.obs.status" in modules  # the renderer, without the server it feeds
    assert loaded(modules, "repro.sim", "repro.harness.runner", "numpy", *DRIVERS) == []
    assert loaded(modules, "http.server", "repro.obs.serve") == []


def test_in_process_sweep_never_loads_numpy_or_a_pool():
    report, _, modules = cli("run", "e1", "--seeds", "2", "--max-workers", "1")
    assert "reproduction check: PASSED" in report
    assert loaded(modules, *DRIVERS) == ["repro.experiments.e1_figure1"]
    assert loaded(modules, *NEVER_ON_THE_SWEEP_PATH, *POOL_MODULES) == []


def test_one_run_per_point_loads_no_pool_at_two_workers():
    """Two workers asked for, one seed per point: nothing to share, so nothing loads.

    Nor does the cooperative scheduler, which no execution path uses.
    """
    report, _, modules = cli("run", "e1", "--seeds", "1", "--max-workers", "2")
    assert "reproduction check: PASSED" in report
    assert loaded(modules, *NEVER_ON_THE_SWEEP_PATH, *POOL_MODULES, "repro.sim.multikernel") == []


def test_large_n_driver_loads_alone():
    """``run e8l`` resolves its own driver, which stands without e8's."""
    _, stderr, modules = cli("run", "e8l", "--scenario", "none", expect=2)
    assert stderr.startswith("error: experiment 'e8l' does not take --scenario")
    assert loaded(modules, *DRIVERS) == ["repro.experiments.e8l_large"]


def test_usage_error_exits_2_before_any_heavy_import():
    _, stderr, modules = cli("run", "e99", expect=2)
    assert stderr.startswith("error: unknown experiment 'e99'")
    assert loaded(modules, "repro.sim", "repro.adversary", "numpy", *DRIVERS) == []


# ----------------------------------------------------------- public surface
@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_on_first_use(package):
    """Importing a package loads none of it; exports and submodules still resolve."""
    body = (
        f"import {package} as package\n"
        "before = sorted(sys.modules)\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "assert set(package.__all__) <= set(star), set(package.__all__) - set(star)\n"
        "assert set(package.__all__) <= set(dir(package))\n"
        "import pkgutil\n"
        "for found in pkgutil.iter_modules(package.__path__):\n"
        "    if not (found.name.startswith('_') or found.name in package.__all__):\n"
        "        assert getattr(package, found.name).__name__.endswith('.' + found.name)\n"
        "print(json.dumps(before))"
    )
    output, _, _ = fresh_python(body)
    before = json.loads(output.splitlines()[-1])
    assert loaded(before, package) in ([package], ["repro", "repro._lazy"])

    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__) > 0
    for name in module.__all__:
        value = getattr(module, name)
        # Only the drivers are exported as modules.
        assert inspect.ismodule(value) == (f"{package}.{name}" in DRIVERS), name
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert getattr(importlib.import_module(home), name) is value
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_export


def test_one_version_string():
    """``setup.py`` ships what ``repro.__version__`` says, from one literal."""
    pytest.importorskip("setuptools")
    assert repro.__version__ == "1.1.0"
    assert vars(repro)["__version__"] is repro.__version__  # no lazy lookup
    shipped = subprocess.run(
        [sys.executable, "setup.py", "--version"], cwd=ROOT, capture_output=True, text=True
    )
    assert shipped.stdout.split()[-1] == repro.__version__, shipped.stderr
    assert not re.search(r'version\s*=\s*"', (ROOT / "setup.py").read_text())
