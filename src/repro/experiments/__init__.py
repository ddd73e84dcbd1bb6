"""Experiments E1–E11: one module per paper figure / quantitative claim.

See ``docs/experiments.md`` for the experiment index (paper claim,
parameters and sample invocations).  Every module exposes ``plan(...)``
(the shardable run enumeration), ``build_report(plan, aggregates)``,
``run(...)`` (used by the benchmark harness and the CLI) and ``main()``
(prints the report).

A driver module is imported when it is first looked up -- as an attribute
of this package or as a key of :data:`ALL_EXPERIMENTS` -- so running one
experiment loads one driver.
"""

from collections.abc import Mapping
from importlib import import_module

from .._lazy import lazy_exports

_DRIVERS = {
    "E1": "e1_figure1",
    "E2": "e2_majority_crash",
    "E3": "e3_one_for_all",
    "E4": "e4_rounds",
    "E5": "e5_mm_comparison",
    "E6": "e6_degenerate",
    "E7": "e7_indulgence",
    "E8": "e8_scalability",
    "E8L": "e8l_large",
    "E9": "e9_adversary",
    "E10": "e10_adaptive",
    "E11": "e11_resilience",
}


class _DriverTable(Mapping):
    """Experiment key (``"E9"``) to driver module, imported when looked up."""

    def __getitem__(self, key):
        return import_module(f"{__name__}.{_DRIVERS[key]}")

    def __iter__(self):
        return iter(_DRIVERS)

    def __len__(self):
        return len(_DRIVERS)


ALL_EXPERIMENTS = _DriverTable()

__all__, __getattr__, __dir__ = lazy_exports(
    globals(), {"common": ["ExperimentReport", "default_seeds"]}
)
__all__ += ["ALL_EXPERIMENTS", *_DRIVERS.values()]
