"""Derive a function from the live source with named hooks taken out.

A dormant-cost gate times the program against the program without some of
its hooks.  :func:`stripped` builds that second version from the first: it
parses ``inspect.getsource(function)``, removes the named nodes, and
compiles what is left in a copy of the function's module globals.  So the
derived function is rebuilt from the live code on every import, and the two
cannot drift apart.

Nodes are named by source text, each pattern with the number of nodes it
must match.  When a count differs -- a flag was renamed, a branch moved or
gained a twin -- :class:`StripError` names the pattern, and the gate fails
rather than timing the hooked code against itself.  Three kinds of node can
be removed:

* ``if_false``: every ``if`` whose test unparses to the pattern is taken as
  false, i.e. replaced by its ``else`` body (nothing when it has none);
* ``if_true``: every such ``if`` is taken as true, i.e. replaced by its body;
* ``unassigned``: every assignment to the one local name the pattern names.

A pattern is matched on ``ast.unparse`` text, so it reads as the code does
(``"proc.paused"``, ``"not faults_links"``) whatever the original spacing.
The derived function is compiled at module level, so the function given
must be a plain ``def`` that closes over nothing.  Its source is registered
with :mod:`linecache`, so ``inspect.getsource`` (which the tier-1 check of
each gate reads) and tracebacks show what it runs.
"""

import __future__
import ast
import inspect
import linecache
import textwrap
from collections import Counter
from typing import Callable, Mapping


class StripError(ValueError):
    """A declared pattern matched a different number of nodes than declared."""


def function_tree(function: Callable) -> ast.FunctionDef:
    """The ``def`` of ``function``, parsed from its current source."""
    (tree,) = ast.parse(textwrap.dedent(inspect.getsource(function))).body
    return tree


def matches(node: ast.AST, kind: str, patterns: Mapping[str, int]) -> str:
    """The pattern of ``kind`` that ``node`` matches, or ``""``."""
    if kind == "unassigned":
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in patterns:
                return target.id
        return ""
    if isinstance(node, ast.If):
        test = ast.unparse(node.test)
        if test in patterns:
            return test
    return ""


class _Stripper(ast.NodeTransformer):
    def __init__(self, declared: Mapping[str, Mapping[str, int]]) -> None:
        self.declared = declared
        self.found: Counter = Counter()

    def visit(self, node: ast.AST):
        node = self.generic_visit(node)
        for kind, patterns in self.declared.items():
            pattern = matches(node, kind, patterns)
            if pattern:
                self.found[kind, pattern] += 1
                if kind == "unassigned":
                    return []
                return node.body if kind == "if_true" else node.orelse
        return node


def stripped(
    function: Callable,
    *,
    if_false: Mapping[str, int] = {},
    if_true: Mapping[str, int] = {},
    unassigned: Mapping[str, int] = {},
) -> Callable:
    """``function`` recompiled without the declared nodes (see the module docstring).

    Each mapping is ``{pattern: count}``; the call raises :class:`StripError`
    naming every pattern whose match count differs from its ``count``.
    """
    declared = {"if_false": if_false, "if_true": if_true, "unassigned": unassigned}
    tree = function_tree(function)
    stripper = _Stripper(declared)
    tree = stripper.visit(tree)
    wrong = [
        f"{kind} {pattern!r} matched {stripper.found[kind, pattern]}, declared {count}"
        for kind, patterns in declared.items()
        for pattern, count in patterns.items()
        if stripper.found[kind, pattern] != count
    ]
    if wrong:
        raise StripError(f"{function.__qualname__}: " + "; ".join(wrong))
    # Compiled from its unparsed text, which linecache then serves: so
    # ``inspect.getsource`` and tracebacks show what actually runs.
    source = ast.unparse(tree) + "\n"
    filename = f"<stripped {function.__module__}.{function.__qualname__}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    flags = function.__code__.co_flags & __future__.annotations.compiler_flag
    code = compile(source, filename, "exec", flags, dont_inherit=True)
    namespace = dict(function.__globals__)
    exec(code, namespace)
    return namespace[tree.name]
