"""The schedule-space search: stateful exploration, tokens, the corpus.

Three kinds of evidence that the harness hunts real bugs and only real
bugs:

* a hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
  dispatch-order choices step by step (n in {4, 7}) and re-verifies
  agreement and validity after *every* step -- the real algorithms must
  survive arbitrary tie-breaking;
* the bounded DFS finds the planted agreement bug in
  ``planted-ben-or`` within a small budget and the returned replay token
  deterministically reproduces the violation, while the same search over
  the real algorithms comes back empty;
* every token committed under ``tests/schedules/`` is replayed against its
  recorded expectation, so a found schedule, once committed, stays a
  regression test forever.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.harness.config import ALGORITHMS
from repro.search import (
    ReplayController,
    SearchSpec,
    format_token,
    parse_token,
    replay_token,
    run_schedule,
    search,
    search_all,
)
from repro.search.explorer import PLANTED_ALGORITHMS

SCHEDULE_DIR = Path(__file__).parent / "schedules"

#: The committed regression token for the planted bug (see the corpus).
PLANTED_TOKEN = "v1/planted-ben-or/n4/s11/one-dissenter/3"


# ------------------------------------------------------------ stateful search
class _ScheduleMachine(RuleBasedStateMachine):
    """Extend a choice prefix one dispatch decision at a time.

    Each step appends one tie-break index and re-executes the whole
    schedule from scratch (executions are cheap and fully deterministic),
    asserting the safety half of the consensus contract -- agreement and
    validity -- on every intermediate schedule, not just the final one.
    """

    n = 4

    def __init__(self):
        super().__init__()
        self.prefix = ()
        self.spec = SearchSpec(algorithm="ben-or", n=self.n, seed=0)

    @rule(choice=st.integers(min_value=0, max_value=3))
    def extend_and_verify(self, choice):
        self.prefix = self.prefix + (choice,)
        result = run_schedule(self.spec, self.prefix)
        assert result.violation is None, result.violation
        assert len(set(result.decisions.values())) <= 1  # agreement
        assert set(result.decisions.values()) <= {0, 1}  # validity (binary)


class _ScheduleMachine4(_ScheduleMachine):
    n = 4


class _ScheduleMachine7(_ScheduleMachine):
    n = 7


_ScheduleMachine4.TestCase.settings = settings(
    max_examples=8, stateful_step_count=6, deadline=None, derandomize=True
)
_ScheduleMachine7.TestCase.settings = settings(
    max_examples=5, stateful_step_count=5, deadline=None, derandomize=True
)

TestScheduleSpaceN4 = _ScheduleMachine4.TestCase
TestScheduleSpaceN7 = _ScheduleMachine7.TestCase


# ----------------------------------------------------------- replay controller
def _entries(count, time=1.0):
    return [(time, sequence, 2, 0, None) for sequence in range(count)]


def test_replay_controller_replays_prefix_then_defaults_to_sequence_order():
    controller = ReplayController([2, 1])
    assert controller.choose(0.0, 1.0, _entries(3)) == 2
    assert controller.choose(0.0, 1.0, _entries(3)) == 1
    assert controller.choose(0.0, 1.0, _entries(3)) == 0  # beyond the prefix
    assert controller.trail == [2, 1, 0]
    assert controller.fanouts == [3, 3, 3]


def test_replay_controller_clamps_out_of_range_choices():
    controller = ReplayController([7])
    assert controller.choose(0.0, 1.0, _entries(2)) == 1  # clamped to last tie
    assert controller.trail == [1]


def test_empty_prefix_reproduces_the_uncontrolled_execution():
    free = run_schedule(SearchSpec())
    controlled = run_schedule(SearchSpec(), ())
    assert free.decisions == controlled.decisions
    assert free.trail == controlled.trail


# -------------------------------------------------------------------- the spec
def test_spec_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        SearchSpec(algorithm="raft")
    with pytest.raises(ValueError, match="at least 2"):
        SearchSpec(n=1)
    with pytest.raises(ValueError, match="token-safe"):
        SearchSpec(proposals="a/b")


def test_spec_cluster_defaults():
    assert SearchSpec(algorithm="shared-memory").clusters == 1
    assert SearchSpec(algorithm="ben-or", n=4).clusters == 2
    assert SearchSpec(algorithm="ben-or", n=4, m=4).clusters == 4


# ---------------------------------------------------------------- token format
@st.composite
def _specs(draw):
    return SearchSpec(
        algorithm=draw(st.sampled_from(ALGORITHMS + PLANTED_ALGORITHMS)),
        n=draw(st.integers(min_value=2, max_value=16)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
    )


@pytest.mark.parametrize("choices", [(), (0,), (3, 1, 0, 2)])
def test_token_round_trip(choices):
    spec = SearchSpec(algorithm="planted-ben-or", n=4, seed=11)
    token = format_token(spec, choices)
    parsed_spec, parsed_choices = parse_token(token)
    assert parsed_spec == spec
    assert parsed_choices == tuple(choices)


def test_token_round_trip_property():
    from hypothesis import given

    @given(
        spec=_specs(),
        choices=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def inner(spec, choices):
        parsed_spec, parsed_choices = parse_token(format_token(spec, choices))
        assert parsed_spec == spec and parsed_choices == tuple(choices)

    inner()


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "v0/ben-or/n4/s0/split/-",
        "v1/ben-or/n4/s0/-",
        "v1/ben-or/x4/s0/split/-",
        "v1/ben-or/n4/s0/split/1.x.2",
        "v1/ben-or/n4/s0/split/-1",
        "v1/no-such-algorithm/n4/s0/split/-",
    ],
)
def test_malformed_tokens_are_refused(bad):
    with pytest.raises(ValueError):
        parse_token(bad)


# ------------------------------------------------------------- the bounded DFS
def test_search_validates_its_bounds():
    spec = SearchSpec()
    with pytest.raises(ValueError, match="budget"):
        search(spec, budget=0)
    with pytest.raises(ValueError, match="fanout_cap"):
        search(spec, fanout_cap=1)
    with pytest.raises(ValueError, match="max_decisions"):
        search(spec, max_decisions=0)


def test_search_finds_and_replays_the_planted_violation():
    outcome = search(SearchSpec(algorithm="planted-ben-or", seed=11), budget=50)
    assert outcome.found
    assert outcome.token == PLANTED_TOKEN
    assert "agreement" in outcome.violation
    # The token alone deterministically reproduces the disagreement.
    replayed = replay_token(outcome.token)
    assert replayed.violation is not None
    assert len(set(replayed.decisions.values())) == 2


def test_search_respects_its_run_budget():
    outcome = search(SearchSpec(algorithm="ben-or"), budget=1)
    assert outcome.runs == 1
    assert not outcome.found


def test_search_is_exhausted_only_when_nothing_was_cut():
    """A drained frontier is exhaustion only if no cap kept an alternative out."""
    spec = SearchSpec("shared-memory", n=3, seed=0)
    capped = search(spec, budget=1000, fanout_cap=2)
    assert (capped.runs, capped.drained, capped.exhausted) == (64, True, False)
    assert capped.alternatives_cut > 0
    shallow = search(spec, budget=1000, max_decisions=2)
    assert shallow.drained and not shallow.exhausted and shallow.alternatives_cut > 0
    full = search(spec, budget=1000, fanout_cap=4)
    assert (full.runs, full.exhausted, full.alternatives_cut) == (216, True, 0)
    spent = search(spec, budget=10)
    assert (spent.runs, spent.drained, spent.exhausted) == (10, False, False)


def test_search_reports_depth_and_fanout_histograms_of_what_it_ran():
    spec = SearchSpec("shared-memory", n=3, seed=0)
    full = search(spec, budget=1000)
    # Every schedule makes three binary and three ternary tie decisions, and
    # the exhausted space is exactly their product: 2**3 * 3**3 = 216 runs.
    assert full.depth_histogram == {6: 216}
    assert full.fanout_histogram == {2: 648, 3: 648}
    spent = search(spec, budget=10)
    assert (spent.depth_histogram, spent.fanout_histogram) == ({6: 10}, {2: 30, 3: 30})
    found = search(SearchSpec(algorithm="planted-ben-or", seed=11), budget=50)
    assert sum(found.depth_histogram.values()) == found.runs == 2
    assert sum(found.fanout_histogram.values()) == sum(
        depth * count for depth, count in found.depth_histogram.items()
    )
    assert found.coverage.startswith("depths 47:1 199:1; fanouts 2:114 3:75")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_real_algorithms_survive_the_search_budget(algorithm):
    outcome = search(SearchSpec(algorithm=algorithm), budget=60)
    assert not outcome.found, outcome.token


@pytest.mark.random_failure(max_runs=3)
def test_search_all_hunts_within_a_wall_budget():
    """Budget smoke: the planted bug must fall inside a tight wall budget.

    Wall-clock bounded, so a loaded box can genuinely starve the search --
    exactly the case the random_failure rerun budget exists for.
    """
    outcomes = search_all(
        ["ben-or", "planted-ben-or"], budget=50, seed=11, wall_budget=30.0
    )
    by_algorithm = {outcome.spec.algorithm: outcome for outcome in outcomes}
    assert not by_algorithm["ben-or"].found
    assert by_algorithm["planted-ben-or"].found


def test_the_planted_variant_is_wired_by_the_harness_alone():
    """``search/planted.py`` holds a class, not a second copy of the run wiring.

    The search hands the class to ``prepare_consensus``; a module that
    imports the kernel, the transport or the seed source again is building
    runs of its own, which drift from the harness's.
    """
    import repro.search.planted as planted

    tree = ast.parse(Path(planted.__file__).read_text())
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"SimulationKernel", "Network", "RandomSource"}, sorted(imported)
    assert "prepare_planted" not in vars(planted)


# ----------------------------------------------------------------- the corpus
def _corpus():
    return sorted(SCHEDULE_DIR.glob("*.json"))


def test_corpus_exists_and_contains_the_planted_regression():
    tokens = [json.loads(path.read_text())["token"] for path in _corpus()]
    assert PLANTED_TOKEN in tokens


@pytest.mark.parametrize("path", _corpus(), ids=lambda path: path.stem)
def test_committed_schedules_replay_to_their_recorded_expectation(path):
    entry = json.loads(path.read_text())
    result = replay_token(entry["token"])
    if entry["expect"] == "violation":
        assert result.violation is not None, f"{entry['token']} no longer violates"
    else:
        assert entry["expect"] == "safe", f"unknown expectation {entry['expect']!r}"
        assert result.violation is None, result.violation
