"""Contract test of the perf ledger, at a tiny size (tier-1, well under 10 s).

Runs every workload once untraced and once traced in this process and checks
what ``BENCHMARK.json`` promises: every metric name is emitted, counts and
digests repeat exactly, the layers a workload must not touch stay at zero,
self times fit inside the wall clock, and the traced pass leaves no wrapper
behind.  Timings at this size mean nothing and are not looked at.
"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module (``bench`` is a namespace package)."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    return importlib.import_module("bench.run")


@pytest.fixture(scope="module")
def reports(bench_run):
    """One untraced and one traced tiny repeat of every workload."""
    done = {}
    for name in WORKLOAD_NAMES:
        pair = []
        for trace in (False, True):
            report = bench_run.run_child(name, seed=5, trace=trace, tiny=True)
            report["setup_s"] = report["child_s"] = 0.5
            pair.append(report)
        done[name] = tuple(pair)
    return done


def test_spec_has_the_contract_shape():
    """Exactly the contract's keys, legal names, five workloads, setup_s bounded."""
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert len(SPEC["workloads"]) == 5 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in SPEC[kind]]
    assert len(set(names)) == len(names)
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(set(entry) == {"name", "why"} for entry in SPEC["workloads"])
    assert all(set(entry) == {"name", "unit", "better", "bound"} for entry in SPEC["end_to_end"])
    assert all(set(entry) == {"name", "unit", "better"} for entry in SPEC["per_layer"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_registry_matches_the_spec(bench_run):
    """The workloads the code knows are the workloads the spec lists."""
    workloads = importlib.import_module("bench.workloads")
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES
    assert set(bench_run.MUST_BE_ZERO) <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_name_is_emitted(bench_run, reports, name):
    """Both result lines carry exactly the spec's names, and nothing fails."""
    untraced, traced = reports[name]
    for record, kind in (
        (bench_run.summarise(name, [untraced, untraced]), "end_to_end"),
        (bench_run.summarise(name, [traced], reference=untraced), "per_layer"),
    ):
        assert record["failed"] == 0, record["problems"]
        line = json.loads(bench_run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert list(line["metrics"]) == [entry["name"] for entry in SPEC[kind]]
        units = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
        assert all(value["unit"] == units[key] for key, value in line["metrics"].items())
    assert all(entry["value"] > 0 for entry in bench_run.summarise(name, [untraced])["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_and_digests_repeat_exactly(reports, name):
    """Two calls at one seed do identical simulated work, traced or not."""
    untraced, traced = reports[name]
    for key in ("digest", "totals", "attempted", "events"):
        assert untraced[key] == traced[key]
    assert untraced["failed"] == traced["failed"] == 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layer_accounting_holds(bench_run, reports, name):
    """Forbidden layers stay at zero; self times never exceed the wall."""
    _, traced = reports[name]
    for metric in bench_run.MUST_BE_ZERO.get(name, ()):
        assert traced["layers"][metric] == 0
    assert sum(traced["self_times"].values()) <= traced["wall_s"]
    assert traced["layers"]["trace.wrapper_s"] >= 0
    assert traced["layers"]["sim.events"] == traced["events"] > 0
    assert traced["layers"]["sim.run_batch_calls"] > 0


def test_tracer_uninstalls_every_wrapper(reports):
    """After the traced repeats the program's callables are the originals."""
    from repro.core import pattern
    from repro.harness import coordinator, parallel, runner
    from repro.network.transport import Network
    from repro.sim.kernel import SimulationKernel

    assert all(not traced["wrappers_left"] for _, traced in reports.values())
    for target in (
        SimulationKernel.run,
        SimulationKernel.run_batch,
        Network.transmit,
        pattern.scan_mailbox,
        runner.prepare_consensus,
        parallel.prepare_consensus,
        parallel.run_many,
        coordinator.try_claim,
    ):
        assert not hasattr(target, "__wrapped__"), target


def test_a_wrong_expected_digest_fails_the_run(bench_run, reports):
    """Editing ``expected.json`` must turn into ``ops_failed`` and exit 1."""
    untraced, _ = reports["flood"]
    record = bench_run.summarise("flood", [untraced], expected={"digest": "0" * 64})
    assert record["failed"] == 1
    assert json.loads(bench_run.contract_line(record))["correct"] is False
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    assert sorted(expected) == sorted(WORKLOAD_NAMES)


def test_compare_verdicts(bench_run):
    """The four verdicts of ``--compare``, on made-up samples."""

    def entry(*samples):
        return bench_run._entry(samples)

    steady = entry(10.0, 10.1, 9.9, 10.0)
    assert bench_run._verdict(steady, entry(10.2, 10.1, 10.3, 10.2), "lower", 0.1) == "within bound"
    assert bench_run._verdict(steady, entry(12.0, 12.1, 11.9, 12.0), "lower", 0.1) == "worse"
    assert bench_run._verdict(steady, entry(8.0, 8.1, 7.9, 8.0), "lower", 0.1) == "better"
    assert bench_run._verdict(steady, entry(8.0, 8.1, 7.9, 8.0), "higher", 0.1) == "worse"
    assert bench_run._verdict(steady, entry(8.0, 12.0, 9.0, 11.0), "lower", 0.1) == "unresolved"


def test_readme_links_resolve():
    """Relative links of ``bench/README.md``, by the link checker's own rule."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        link_re = importlib.import_module("check_markdown_links").LINK_RE
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    readme = ROOT / "bench" / "README.md"
    for target in link_re.findall(readme.read_text(encoding="utf-8")):
        if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target) or target.startswith("#"):
            continue
        assert (readme.parent / target.split("#", 1)[0]).exists(), target
