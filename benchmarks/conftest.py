"""Benchmark-suite bootstrap, for runs rooted here as well as at the top.

Makes ``repro`` importable from a plain checkout, keeps the benchmark suite
runnable on its own (``pytest benchmarks/ --benchmark-only``), and hosts the
timing helpers shared by the benchmark files.
"""

import pathlib
import sys
import time

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

try:  # pragma: no cover - trivial import probe
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    # Standalone-benchmark-run safety net: when pytest's rootdir is the
    # benchmarks directory itself the top-level conftest (which loads the
    # repro.harness.pytest_timing plugin) is not seen, so register the
    # marker here too to keep --strict-markers runs green.  Duplicate
    # registration under the normal rootdir is harmless.
    config.addinivalue_line(
        "markers",
        "timing: wall-clock-gated test; rerun once on failure unless REPRO_BENCH_STRICT=1 is set.",
    )
    config.addinivalue_line(
        "markers",
        "random_failure(max_runs=N): wall-clock-gated test retried up to N times; "
        "REPRO_BENCH_STRICT=1 disables every rerun.",
    )


@pytest.fixture
def timed():
    """``timed(fn) -> (value, seconds)``, for best-of-N wall-clock comparisons."""

    def _timed(callable_):
        start = time.perf_counter()
        value = callable_()
        return value, time.perf_counter() - start

    return _timed


@pytest.fixture
def strict_timing(benchmark, request):
    """Whether this benchmark's hard timing assert should be live.

    Timing gates are perf gates, not correctness gates: they are enforced
    only in dedicated benchmark runs (``make bench``, i.e.
    ``--benchmark-only``) on hardware with at least 4 usable CPUs
    (quota-aware via ``available_cpus``), so a loaded CI box running the
    plain suite can never flake on wall-clock numbers.
    """
    from repro.harness.parallel import available_cpus

    return (
        bool(request.config.getoption("--benchmark-only", default=False))
        and benchmark.enabled
        and available_cpus() >= 4
    )
