"""The dormant-cost gates time the live code against a derivation of it.

``benchmarks/test_bench_adversary.py`` and ``benchmarks/test_bench_obs.py``
build their baselines with ``benchmarks/stripped.py``: the live function
recompiled without the nodes the gate file declares.  These tests hold the
helper to that contract on a toy function, and hold each gate's baseline to
differ from the live function by exactly its declared nodes: the derived
lines are the live lines in order, less precisely the lines of those nodes
(an ``if`` taken as true or false keeps the branch that survives).  No
timing is involved.
"""

import ast
import inspect
import re
from collections import Counter

import pytest

from benchmarks.stripped import StripError, function_tree, matches, stripped
from benchmarks.test_bench_adversary import PREHOOK
from benchmarks.test_bench_obs import PREOBS
from repro.sim.kernel import SimulationKernel

GATES = [(SimulationKernel.run_batch, PREHOOK)] + [
    (getattr(owner, name), patterns) for (owner, name), patterns in PREOBS.items()
]
GATE_IDS = [function.__qualname__ for function, _ in GATES]


def _lines(node):
    return [line.strip() for line in ast.unparse(node).splitlines()]


def _is_subsequence(short, long):
    rest = iter(long)
    return all(line in rest for line in short)


@pytest.mark.parametrize("function, declared", GATES, ids=GATE_IDS)
def test_a_gate_baseline_differs_from_the_live_code_by_exactly_the_declared_nodes(function, declared):
    live = function_tree(function)
    derived = function_tree(stripped(function, **declared))
    found, expected = Counter(), Counter()
    for node in ast.walk(live):
        for kind, patterns in declared.items():
            pattern = matches(node, kind, patterns)
            if pattern:
                found[kind, pattern] += 1
                kept = node.body if kind == "if_true" else getattr(node, "orelse", [])
                expected += Counter(_lines(node))
                expected -= Counter(line for statement in kept for line in _lines(statement))
    assert found == Counter(
        {(kind, pattern): count for kind, patterns in declared.items() for pattern, count in patterns.items()}
    )
    assert _is_subsequence(_lines(derived), _lines(live))
    assert Counter(_lines(live)) - Counter(_lines(derived)) == expected
    assert not Counter(_lines(derived)) - Counter(_lines(live))


@pytest.mark.parametrize("function, declared", GATES, ids=GATE_IDS)
def test_a_gate_whose_pattern_count_is_off_fails_naming_the_pattern(function, declared):
    """What a renamed flag or a second copy of a hook does to the derivation."""
    for kind, patterns in declared.items():
        for pattern, count in patterns.items():
            for wrong in (count - 1, count + 1):
                refusal = re.escape(f"{kind} {pattern!r} matched {count}, declared {wrong}")
                with pytest.raises(StripError, match=refusal):
                    stripped(function, **{**declared, kind: {**patterns, pattern: wrong}})
            renamed = {**{p: c for p, c in patterns.items() if p != pattern}, pattern + "_renamed": count}
            with pytest.raises(StripError, match=re.escape(f"{kind} {pattern + '_renamed'!r} matched 0")):
                stripped(function, **{**declared, kind: renamed})


def _toy(items, hooked):
    hook = hooked
    total = 0
    for item in items:
        if hook:
            total += 100
        if not hook:
            total += item
        else:
            total -= item
    return total


def test_stripped_takes_out_branches_and_hoisted_names():
    derived = stripped(_toy, unassigned={"hook": 1}, if_false={"hook": 1}, if_true={"not hook": 1})
    assert _toy([1, 2], True) == 197
    assert derived([1, 2], True) == derived([1, 2], False) == 3
    assert inspect.getsource(derived).splitlines() == [
        "def _toy(items, hooked):",
        "    total = 0",
        "    for item in items:",
        "        total += item",
        "    return total",
    ]


def test_stripped_names_every_pattern_whose_count_is_off():
    with pytest.raises(StripError) as refused:
        stripped(_toy, if_false={"hook": 2, "hooks": 1}, unassigned={"hook": 1})
    message = str(refused.value)
    assert message.startswith("_toy: ")
    assert "if_false 'hook' matched 1, declared 2" in message
    assert "if_false 'hooks' matched 0, declared 1" in message
    assert "unassigned" not in message

