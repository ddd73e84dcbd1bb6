"""Bounded schedule-space search: actively hunting safety violations.

The simulator's golden and property suites check *one* schedule per seed --
the one the seeded delay samples happen to produce.  This package explores
*many*: the kernel's schedule-controller seam exposes every point where
several events are ready at the same virtual instant, and the explorer
drives those choice points systematically (bounded DFS over
same-timestamp dispatch permutations), re-verifying agreement and
validity after every complete schedule.

Any violating schedule is summarised as a compact, deterministic *replay
token* -- algorithm, system size, seed and the exact choice sequence --
so a violation found by an overnight search becomes a one-line committable
regression test (see ``tests/schedules/``).

:mod:`~repro.search.explorer` holds the controller, the DFS and the token
format; :mod:`~repro.search.planted` holds a deliberately broken Ben-Or
variant, wired by the harness like any algorithm, used to prove the
search actually finds real disagreement;
:mod:`~repro.search.systemic` post-processes sweep grids (experiment e10)
into systemic-failure findings.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "explorer": [
            "ReplayController", "ScheduleResult", "SearchOutcome", "SearchSpec", "format_token",
            "parse_token", "replay_token", "run_schedule", "search", "search_all",
        ],
        "systemic": ["SystemicPattern", "detect_systemic_failure"],
    },
)
