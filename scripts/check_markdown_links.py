"""Check that relative markdown links in the repo's docs point at real files.

Scans the documentation surface (top-level ``*.md``, ``docs/``, ``examples/``
and in-tree READMEs) for ``[text](target)`` links and verifies every
*relative* target exists on disk.  External URLs (``http(s)://``,
``mailto:``), pure in-page anchors (``#...``) and targets that resolve
outside the repository (GitHub-web-relative links like the CI badge's
``../../actions/...``) are skipped -- only claims about files in this repo
are checked.

Docstrings under ``src/`` are checked too: every ``*.md`` path a module,
class or function docstring names (``docs/performance.md``) must exist,
relative to the repo root or to the module's own directory.  And every
fully qualified cross-reference in ``src/`` -- the ``repro.*`` target of a
``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:attr:``, ``:data:`` or
``:exc:`` role, ``~`` prefix or not, in a docstring or a ``#:`` comment --
must resolve by import: the longest importable module prefix, then
attribute lookups for the rest.

Run from anywhere inside the repo:  python scripts/check_markdown_links.py
Exit status: 0 when every link resolves, 1 otherwise (broken links listed).
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: ``[text](target)`` -- good enough for the plain links these docs use.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A markdown file named in a docstring, e.g. ``docs/scaling.md``.
DOCSTRING_MD_RE = re.compile(r"[\w./-]*\w\.md\b")

#: A fully qualified cross-reference role, e.g. :class:`~repro.sim.config.SimConfig`.
ROLE_RE = re.compile(r":(?:class|func|meth|mod|attr|data|exc):`~?(repro(?:\.\w+)+)`")

#: The AST nodes that carry docstrings.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: Where documentation lives, relative to the repo root.
DOC_GLOBS = ("*.md", "docs/**/*.md", "examples/**/*.md", "src/**/*.md", ".github/**/*.md")


def repo_root() -> Path:
    """The repository root (parent of the scripts/ directory)."""
    return Path(__file__).resolve().parent.parent


def doc_files(root: Path) -> List[Path]:
    """Every markdown file on the documentation surface, deduplicated."""
    found = set()
    for pattern in DOC_GLOBS:
        found.update(root.glob(pattern))
    return sorted(path for path in found if path.is_file())


def broken_links(root: Path) -> List[Tuple[Path, str]]:
    """All ``(file, target)`` pairs whose relative target does not exist."""
    broken = []
    for md_file in doc_files(root):
        for target in LINK_RE.findall(md_file.read_text(encoding="utf-8")):
            if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):  # http:, https:, mailto:
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            path_part = target.split("#", 1)[0]
            resolved = (md_file.parent / path_part).resolve()
            try:
                resolved.relative_to(root)
            except ValueError:
                continue  # escapes the repo (e.g. GitHub-web-relative badge links)
            if not resolved.exists():
                broken.append((md_file, target))
    return broken


def docstrings(source: Path) -> Iterator[str]:
    """Every module, class and function docstring of one Python file."""
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, _DOCUMENTED):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def broken_docstring_references(root: Path) -> List[Tuple[Path, str]]:
    """All ``(source, name)`` pairs where a ``src/`` docstring names a missing ``*.md``."""
    broken = []
    for source in sorted((root / "src").rglob("*.py")):
        for docstring in docstrings(source):
            for name in DOCSTRING_MD_RE.findall(docstring):
                if name.startswith("/"):  # part of a URL or an absolute path
                    continue
                if not ((root / name).exists() or (source.parent / name).exists()):
                    broken.append((source, name))
    return broken


def resolves(target: str) -> bool:
    """Whether the dotted ``target`` names a module or an attribute reachable from one."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            # Only a module missing from the target's own prefix means "try a
            # shorter prefix"; a module failing to import something else is a
            # defect of its own and propagates.
            if error.name is None or not (module_name + ".").startswith(error.name + "."):
                raise
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def dangling_cross_references(root: Path) -> Tuple[int, List[Tuple[Path, str]]]:
    """The number of ``repro.*`` role targets under ``src/`` and the ``(source, target)`` that dangle.

    Targets are imported from ``sys.path``; :func:`main` puts this checkout's
    ``src/`` first.
    """
    checked = 0
    dangling = []
    for source in sorted((root / "src").rglob("*.py")):
        for target in ROLE_RE.findall(source.read_text(encoding="utf-8")):
            checked += 1
            if not resolves(target):
                dangling.append((source, target))
    return checked, dangling


def main() -> int:
    """Entry point; prints broken links and returns the exit status."""
    root = repo_root()
    sys.path.insert(0, str(root / "src"))
    broken = broken_links(root)
    for md_file, target in broken:
        print(f"{md_file.relative_to(root)}: broken link -> {target}")
    dangling = broken_docstring_references(root)
    for source, name in dangling:
        print(f"{source.relative_to(root)}: docstring names missing {name}")
    references, unresolved = dangling_cross_references(root)
    for source, target in unresolved:
        print(f"{source.relative_to(root)}: cross-reference does not resolve -> {target}")
    checked = len(doc_files(root))
    if broken or dangling or unresolved:
        print(
            f"{len(broken)} broken link(s) across {checked} markdown file(s), "
            f"{len(dangling)} dangling docstring reference(s) and "
            f"{len(unresolved)} of {references} cross-reference(s) unresolved under src/"
        )
        return 1
    print(
        f"all relative links resolve across {checked} markdown file(s) and src/ docstrings, "
        f"and all {references} repro.* cross-references under src/ resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
