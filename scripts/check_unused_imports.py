"""Check that every import in the repo's Python trees is used.

``make lint`` runs ruff when it is installed; this is its fallback where it
is not (the container has no ruff and no network), so the one class of
defect a refactor reliably leaves behind -- an import nothing reads any
more -- still fails a gate.  It parses every ``*.py`` under ``src/``,
``tests/``, ``benchmarks/``, ``scripts/`` and ``examples/`` and reports each
name an ``import`` binds that the same file never reads.

A name counts as read when it appears as a name or argument anywhere in the
file, inside a string annotation, or in the file's ``__all__``.  Left alone:
``from __future__`` and star imports, imports under ``if TYPE_CHECKING:``,
lines (or import statements) carrying ``# noqa`` / ``# noqa: F401``, and
``conftest.py`` files, whose imports are path probes (``ruff.toml`` exempts
them the same way).

Run from anywhere inside the repo:  python scripts/check_unused_imports.py
Exit status: 0 when every import is read, 1 otherwise (``file:line name`` each).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

#: The trees ``make lint`` covers, relative to the repo root.
TREES = ("src", "tests", "benchmarks", "scripts", "examples")

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def repo_root() -> Path:
    """The repository root (parent of the scripts/ directory)."""
    return Path(__file__).resolve().parent.parent


def _exempt(line: str) -> bool:
    """Whether a source line carries a ``noqa`` that covers F401."""
    match = _NOQA_RE.search(line)
    return bool(match) and (match.group("codes") is None or "F401" in match.group("codes").upper())


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _bindings(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[int, str]]:
    """Every ``(line, bound name)`` an import statement of the file creates."""
    skipped: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            skipped.update(ast.walk(node))
    for node in ast.walk(tree):
        if node in skipped or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if _exempt(lines[node.lineno - 1]) or _exempt(lines[node.end_lineno - 1]):
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if alias.name == "*" or _exempt(lines[line - 1]):
                continue
            yield line, alias.asname or alias.name.split(".")[0]


def _names_read(tree: ast.AST) -> Set[str]:
    """Every identifier the file reads, string annotations and ``__all__`` included."""
    read: Set[str] = set()
    quoted: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)  # pytest fixtures are requested by argument name
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                quoted.append(node.value)
    for holder in quoted:
        for node in ast.walk(holder) if holder is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(name.id for name in ast.walk(inner) if isinstance(name, ast.Name))
    return read


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """The ``(line, name)`` pairs ``path`` imports and never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    read = _names_read(tree)
    return sorted(
        (line, name) for line, name in _bindings(tree, source.splitlines()) if name not in read
    )


def main() -> int:
    """Print every unused import under :data:`TREES`; nonzero when any exist."""
    root = repo_root()
    findings = []
    checked = 0
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            if path.name == "conftest.py":
                continue
            checked += 1
            for line, name in unused_imports(path):
                findings.append(f"{path.relative_to(root)}:{line} {name}")
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} unused import(s) in {checked} files", file=sys.stderr)
        return 1
    print(f"no unused imports in {checked} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
