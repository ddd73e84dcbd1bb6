#!/usr/bin/env python
"""Freeze the kernel's per-run summaries into the golden fixture.

Runs the small e1-e11 configurations from ``tests.helpers.golden_plans``
serially and writes every resulting :class:`RunSummary` (floats as exact
``float.hex()`` strings) to ``tests/golden/kernel_summaries.json``.

The committed fixture was generated from the PRE-refactor kernel (before the
flat-tuple event queue, __slots__ and batched delay sampling landed), so
``tests/test_golden_kernel.py`` asserting against it proves the refactored
kernel reproduces the original executions bit-for-bit.  Re-run this script
only when a deliberate, understood behaviour change invalidates the fixture,
and say so in the commit message.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUT = REPO_ROOT / "tests" / "golden" / "kernel_summaries.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT, help="fixture path to write"
    )
    args = parser.parse_args(argv)

    from tests.helpers import compute_golden_summaries

    fixture = compute_golden_summaries()
    total = sum(
        len(point["runs"]) for points in fixture["experiments"].values() for point in points
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(fixture['experiments'])} experiments, {total} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
