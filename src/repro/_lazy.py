"""Package exports that load on first use (PEP 562).

Every package ``__init__`` under :mod:`repro` lists what it exports as one
``submodule -> names`` table and hands it to :func:`lazy_exports`; nothing
is imported until an export is looked up, so a command pays start-up only
for the modules it uses.  ``tests/test_startup_imports.py`` holds the
import graphs this buys and the public surface it must keep.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package owning ``namespace``.

    ``exports`` maps a submodule (relative to the package) to the names the
    package re-exports from it.  An export is resolved from its submodule on
    every lookup and never copied into ``namespace``, so the package can
    hold no stale binding.  Any other public name is tried as a submodule:
    ``repro.sim`` and ``repro.harness.distributed`` stay attributes of their
    packages, as they were when every package imported all of its
    submodules.  A package may extend the ``__all__`` it is handed (eager
    names, submodules it exports as modules); ``dir()`` follows it.
    """
    package = namespace["__name__"]
    origin = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        submodule = origin.get(name)
        if submodule is not None:
            return getattr(import_module(f"{package}.{submodule}"), name)
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise  # the submodule exists; something it imports does not
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return sorted(origin), __getattr__, __dir__
