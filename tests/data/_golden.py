"""The command line shared by the ``make_*_golden.py`` scripts.

``main(argv, golden, compute, name)`` computes every case with
``compute()``.  Without arguments it writes them to the fixture ``golden``;
with ``--check`` it writes nothing, compares them with the fixture's and
exits 1 after listing every case that differs, by ``name(case)`` (0 if
every case matches).
"""

from __future__ import annotations

import json
import os
import sys


def check(cases: list[dict], golden: str, name) -> int:
    """Compare computed cases with the fixture's; list every one that
    differs and return 1, or 0 if all match."""
    with open(golden) as fh:
        expected = json.load(fh)["cases"]
    differs = [name(want) for got, want in zip(cases, expected) if got != want]
    if len(cases) != len(expected):
        differs.append(f"{len(cases)} cases against {len(expected)} in the fixture")
    for what in differs:
        sys.stdout.write(f"differs: {what}\n")
    if differs:
        return 1
    sys.stdout.write(f"all {len(cases)} cases match {golden}\n")
    return 0


def main(argv: list[str], golden: str, compute, name) -> int:
    if argv not in ([], ["--check"]):
        sys.stderr.write(f"usage: {os.path.basename(sys.argv[0])} [--check]\n")
        return 2
    cases = compute()
    if argv:
        return check(cases, golden, name)
    with open(golden, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(cases)} cases to {golden}\n")
    return 0
