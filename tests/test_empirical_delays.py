"""The trace-driven delay models: fits, loaders, replay and the CLI.

Property tests (hypothesis) pin the ECDF sketch to its accuracy contract --
every model quantile within one grid cell of the source data's, inverse CDF
monotone -- and the deterministic pieces (dataset loaders, trace replay
exhaustion, ``python -m repro fit-delays``) get example-based coverage.
"""

import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.network.empirical import (
    REFERENCE_RTT_MS,
    EmpiricalDelay,
    ShiftedLogNormalDelay,
    TraceExhausted,
    TraceReplayDelay,
    empirical_quantile,
    fit_delay_model,
    load_rtt_samples,
    scale_to_unit_mean,
)

# Positive, finite, spread over several decades, immune to degenerate
# float artefacts (subnormals, inf) that would test float trivia rather
# than the sketch.
sample_sets = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=300,
)


# ------------------------------------------------------------------ ECDF fit
def _ulp_slack(*values):
    """A few ulps of headroom: linear interpolation may overshoot its cell
    endpoint by rounding (``low + (high - low) * f`` with ``f`` just below
    1), which is measurement noise, not sketch error."""
    return 4.0 * math.ulp(max(1.0, *map(abs, values)))


@given(samples=sample_sets, resolution=st.integers(min_value=1, max_value=128))
@settings(max_examples=80, deadline=None)
def test_fit_quantiles_stay_within_one_grid_cell_of_the_data(samples, resolution):
    """Sketch accuracy: any model quantile is sandwiched between the source
    data's quantiles at the bracketing grid probabilities."""
    model = EmpiricalDelay.fit(samples, resolution=resolution)
    data = sorted(samples)
    for p in (0.0, 0.01, 0.1, 0.25, 0.5, 0.7, 0.75, 0.9, 0.99, 1.0):
        cell = math.floor(p * resolution)
        low = empirical_quantile(data, min(cell / resolution, 1.0))
        high = empirical_quantile(data, min((cell + 1) / resolution, 1.0))
        slack = _ulp_slack(low, high)
        assert low - slack <= model.quantile(p) <= high + slack, (p, resolution)


@given(samples=sample_sets, resolution=st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_fit_inverse_cdf_is_monotone_and_range_bounded(samples, resolution):
    """The inverse CDF never decreases and never leaves the sample range."""
    model = EmpiricalDelay.fit(samples, resolution=resolution)
    probabilities = [i / 50 for i in range(51)]
    values = [model.quantile(p) for p in probabilities]
    assert all(a <= b + _ulp_slack(a, b) for a, b in zip(values, values[1:]))
    assert values[0] == min(samples)
    assert values[-1] == max(samples)


@given(samples=sample_sets, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fit_samples_land_inside_the_source_range(samples, seed):
    """Every draw interpolates the grid, so it stays within the data range."""
    model = EmpiricalDelay.fit(samples, resolution=16)
    rng = random.Random(seed)
    low, high = min(samples), max(samples)
    slack = _ulp_slack(low, high)
    for value in model.sample_batch(rng, 64):
        assert low - slack <= value <= high + slack


@given(samples=sample_sets)
@settings(max_examples=60, deadline=None)
def test_scale_to_unit_mean_preserves_shape(samples):
    """Normalisation divides by one constant: mean 1, ratios preserved."""
    scaled = scale_to_unit_mean(samples)
    assert math.fsum(scaled) / len(scaled) == pytest.approx(1.0)
    factor = samples[0] / scaled[0]
    for raw, unit in zip(samples, scaled):
        assert unit * factor == pytest.approx(raw, rel=1e-9)


def test_fit_validates_inputs():
    with pytest.raises(ValueError, match="at least 2 samples"):
        EmpiricalDelay.fit([1.0])
    with pytest.raises(ValueError, match="positive finite"):
        EmpiricalDelay.fit([1.0, -2.0])
    with pytest.raises(ValueError, match="positive finite"):
        EmpiricalDelay.fit([1.0, math.inf])
    with pytest.raises(ValueError, match="resolution"):
        EmpiricalDelay.fit([1.0, 2.0], resolution=0)
    with pytest.raises(ValueError, match="non-decreasing"):
        EmpiricalDelay(quantiles=(2.0, 1.0))
    with pytest.raises(ValueError, match="probability"):
        EmpiricalDelay(quantiles=(1.0, 2.0)).quantile(1.5)


def test_fit_is_deterministic_with_value_only_repr():
    """Two hosts fitting the same data build fingerprint-identical models."""
    unit = scale_to_unit_mean(REFERENCE_RTT_MS)
    one, two = EmpiricalDelay.fit(unit), EmpiricalDelay.fit(unit)
    assert one == two
    assert repr(one) == repr(two)
    assert eval(repr(one), {"EmpiricalDelay": EmpiricalDelay}) == one
    assert "resolution=64" in one.describe()


# ------------------------------------------------------- shifted log-normal
def test_shifted_lognormal_fit_recovers_parameters():
    """Fitting draws from a known shifted log-normal finds it approximately."""
    rng = random.Random(424242)
    shift, median, sigma = 0.4, 0.6, 0.5
    draws = [shift + rng.lognormvariate(math.log(median), sigma) for _ in range(4000)]
    model = ShiftedLogNormalDelay.fit(draws)
    assert model.shift == pytest.approx(shift, abs=0.1)
    assert model.median == pytest.approx(median, rel=0.25)
    assert model.sigma == pytest.approx(sigma, rel=0.25)


@given(samples=sample_sets)
@settings(max_examples=60, deadline=None)
def test_shifted_lognormal_fit_is_always_constructible(samples):
    """Any valid sample set fits to a valid model with a positive floor gap."""
    model = ShiftedLogNormalDelay.fit(samples)
    assert 0.0 < model.shift < min(samples)
    assert model.median > 0 and model.sigma > 0
    value = model.sample(random.Random(1))
    assert value > model.shift


def test_shifted_lognormal_validates_parameters():
    with pytest.raises(ValueError):
        ShiftedLogNormalDelay(shift=-0.1)
    with pytest.raises(ValueError):
        ShiftedLogNormalDelay(median=0.0)
    with pytest.raises(ValueError):
        ShiftedLogNormalDelay(sigma=0.0)


# ------------------------------------------------------------- trace replay
def test_trace_replay_is_deterministic_and_seed_independent():
    """Draw i is trace[i] for every rng; the rng is never consumed."""
    trace = tuple(scale_to_unit_mean(REFERENCE_RTT_MS))
    model = TraceReplayDelay(trace)
    for seed in (0, 7, 999):
        rng = random.Random(seed)
        state = rng.getstate()
        assert [model.sample(rng) for _ in range(10)] == list(trace[:10])
        assert rng.getstate() == state
        assert model.replayed(rng) == 10


def test_trace_replay_streams_are_independent_per_rng():
    """Two concurrent consumers (coop kernels, repeated runs) each replay
    from the top without resetting anything on the shared model object."""
    model = TraceReplayDelay((1.0, 2.0, 3.0, 4.0))
    first, second = random.Random(1), random.Random(2)
    assert model.sample(first) == 1.0
    assert model.sample(first) == 2.0
    assert model.sample(second) == 1.0
    assert model.sample_batch(first, 2) == [3.0, 4.0]
    assert model.sample_batch(second, 3) == [2.0, 3.0, 4.0]


@given(length=st.integers(min_value=2, max_value=64), extra=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_trace_exhaustion_raises_instead_of_wrapping(length, extra):
    """Running past the end is a loud TraceExhausted, never a silent wrap."""
    model = TraceReplayDelay(tuple(float(i + 1) for i in range(length)))
    rng = random.Random(0)
    for _ in range(length):
        model.sample(rng)
    with pytest.raises(TraceExhausted, match="record a longer trace"):
        model.sample(rng)
    # A fresh stream that over-asks in one batch gets the same error, after
    # consuming the whole tail exactly like per-call draws would.
    fresh = random.Random(1)
    with pytest.raises(TraceExhausted):
        model.sample_batch(fresh, length + extra)
    assert model.replayed(fresh) == length


def test_trace_replay_validates_and_pickles():
    import pickle

    with pytest.raises(ValueError, match="at least 2"):
        TraceReplayDelay((1.0,))
    with pytest.raises(ValueError, match="positive finite"):
        TraceReplayDelay((1.0, 0.0))
    model = TraceReplayDelay((1.0, 2.0, 3.0))
    rng = random.Random(0)
    model.sample(rng)
    clone = pickle.loads(pickle.dumps(model))
    assert clone == model
    # The replay position is per-process transient state, not model state:
    # a worker unpickling the model starts its own streams from the top.
    assert clone.sample(random.Random(5)) == 1.0
    assert len(model) == 3
    assert model.describe().startswith("TraceReplayDelay(length=3, sha256=")


# ------------------------------------------------------------------ loaders
DATA_DIR = Path(__file__).parent / "data"


def test_load_rtt_samples_csv_fixture_matches_reference():
    assert load_rtt_samples(DATA_DIR / "rtt_sample.csv") == list(REFERENCE_RTT_MS)


def test_load_rtt_samples_jsonl_fixture_matches_reference():
    assert load_rtt_samples(DATA_DIR / "rtt_sample.jsonl") == list(REFERENCE_RTT_MS)


def test_load_rtt_samples_csv_variants(tmp_path):
    headerless = tmp_path / "plain.csv"
    headerless.write_text("1.5\n2.5\n3.5\n")
    assert load_rtt_samples(headerless) == [1.5, 2.5, 3.5]
    other_column = tmp_path / "named.csv"
    other_column.write_text("host,latency\na,4.0\nb,5.0\n")
    assert load_rtt_samples(other_column) == [4.0, 5.0]


def test_load_rtt_samples_jsonl_numbers(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text("1.25\n\n2.5\n")
    assert load_rtt_samples(path) == [1.25, 2.5]


@pytest.mark.parametrize(
    "name, content, match",
    [
        ("bad.csv", "host\na\nb\n", "no RTT column"),
        ("bad2.csv", "rtt\n1.0\noops\n", "not a number"),
        ("bad.jsonl", "{not json}\n", "not valid JSON"),
        ("bad2.jsonl", '{"host": "a"}\n', "no RTT field"),
        ("bad3.jsonl", "[1, 2]\n", "expected a number or object"),
        ("empty.csv", "", "at least 2 samples"),
        ("negative.csv", "rtt\n1.0\n-3.0\n", "positive finite"),
    ],
)
def test_load_rtt_samples_rejects_malformed_input(tmp_path, name, content, match):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(ValueError, match=match):
        load_rtt_samples(path)


def test_load_rtt_samples_missing_file():
    with pytest.raises(ValueError, match="does not exist"):
        load_rtt_samples("tests/data/no_such_file.csv")


# ------------------------------------------------------------- fit frontend
def test_fit_delay_model_kinds():
    unit = scale_to_unit_mean(REFERENCE_RTT_MS)
    assert isinstance(fit_delay_model(unit, "empirical"), EmpiricalDelay)
    assert isinstance(fit_delay_model(unit, "shifted-lognormal"), ShiftedLogNormalDelay)
    replay = fit_delay_model(REFERENCE_RTT_MS, "replay", unit_mean=True)
    assert isinstance(replay, TraceReplayDelay)
    assert list(replay.trace) == unit
    with pytest.raises(ValueError, match="unknown model kind"):
        fit_delay_model(unit, "gaussian")


def test_cli_fit_delays_prints_a_reusable_repr(capsys):
    assert cli_main(["fit-delays", str(DATA_DIR / "rtt_sample.csv"), "--unit-mean"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    model = eval(lines[-1], {"EmpiricalDelay": EmpiricalDelay})
    assert model == EmpiricalDelay.fit(scale_to_unit_mean(REFERENCE_RTT_MS))
    assert "96 samples" in out and "unit mean" in out


def test_cli_fit_delays_other_models(capsys):
    assert cli_main(
        ["fit-delays", str(DATA_DIR / "rtt_sample.jsonl"), "--model", "shifted-lognormal"]
    ) == 0
    assert "ShiftedLogNormalDelay(" in capsys.readouterr().out
    assert cli_main(
        ["fit-delays", str(DATA_DIR / "rtt_sample.csv"), "--model", "replay", "--unit-mean"]
    ) == 0
    assert "TraceReplayDelay(" in capsys.readouterr().out


def test_cli_fit_delays_errors_follow_the_exit_convention(capsys, tmp_path):
    assert cli_main(["fit-delays", str(tmp_path / "missing.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("host\na\nb\n")
    assert cli_main(["fit-delays", str(bad)]) == 2
    assert "no RTT column" in capsys.readouterr().err


def test_cli_fit_delays_resolution_flag(capsys):
    assert cli_main(
        ["fit-delays", str(DATA_DIR / "rtt_sample.csv"), "--resolution", "8", "--unit-mean"]
    ) == 0
    out = capsys.readouterr().out
    assert "resolution=8" in out


def test_reference_dataset_shape():
    """The committed reference set keeps its story: a WAN-like skewed body
    with a heavy congestion tail (what makes the e11 sweep interesting)."""
    assert len(REFERENCE_RTT_MS) == 96
    assert min(REFERENCE_RTT_MS) > 20.0
    median = empirical_quantile(sorted(REFERENCE_RTT_MS), 0.5)
    assert 35.0 < median < 50.0
    assert max(REFERENCE_RTT_MS) > 5 * median  # the tail is genuinely heavy
    assert all(value == round(value, 3) for value in REFERENCE_RTT_MS)
