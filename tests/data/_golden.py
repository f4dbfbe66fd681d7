"""The command line shared by the ``make_*_golden.py`` scripts.

``main(argv, golden, compute, name)`` computes every case with
``compute()``.  Without arguments it writes them to the fixture ``golden``;
with ``--check`` it writes nothing, compares them with the fixture's and
exits 1 after listing every case that differs, by ``name(case)``, each
followed by the largest relative change of every numeric field in it (0 if
every case matches).  ``report`` gives that list as text, which the golden
tests use as their assertion message.  The numbers of a field are found
wherever a case holds them: JSON numbers and hex floats under the field's
key, CSV cells under their column's header, and ``name=value`` pairs of
``repr`` text.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys

_REPR_FIELD = re.compile(r"(\w+)=([^,()]+)")


def _numbers(value, field: str = "value"):
    """(field, number) for every number a case holds, in order."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield field, float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, key)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item, field)
    elif not isinstance(value, str):
        return  # true, false and null are no numbers
    elif "\n" in value:  # CSV, below its comment lines
        rows = csv.reader(line for line in value.splitlines() if not line.startswith("#"))
        header = next(rows, [])
        for row in rows:
            for column, cell in zip(header, row):
                yield from _numbers(cell, column)
    elif "=" in value:  # repr text
        for key, cell in _REPR_FIELD.findall(value):
            yield from _numbers(cell, key)
    else:
        try:
            yield field, float.fromhex(value) if "0x" in value else float(value)
        except ValueError:
            pass


def _relative_change(got: float, want: float) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want) and want):
        return math.inf
    return abs(got - want) / abs(want)


def drift(got, want) -> dict:
    """Field -> the largest relative change of its numbers from want to got,
    or a note when the field holds a different count of numbers."""
    fields: dict = {}
    for side, case in enumerate((got, want)):
        for field, number in _numbers(case):
            fields.setdefault(field, ([], []))[side].append(number)
    return {field: (max(map(_relative_change, new, old), default=0.0) if len(new) == len(old)
                    else f"{len(new)} numbers against {len(old)}")
            for field, (new, old) in fields.items()}


def report(cases: list[dict], expected: list[dict], name) -> str:
    """One line per computed case that differs from the expected one, by
    ``name(case)``, each followed by the largest relative change of every
    numeric field in it; empty if every case matches."""
    differs = [(name(want), drift(got, want)) for got, want in zip(cases, expected) if got != want]
    if len(cases) != len(expected):
        differs.append((f"{len(cases)} cases against {len(expected)} in the fixture", {}))
    lines = []
    for what, changes in differs:
        lines.append(f"differs: {what}\n")
        for field, change in changes.items():
            lines.append(f"  {field}: {change:.2e}\n" if isinstance(change, float)
                         else f"  {field}: {change}\n")
    return "".join(lines)


def check(cases: list[dict], golden: str, name) -> int:
    """Compare computed cases with the fixture's; list every one that
    differs and return 1, or 0 if all match."""
    with open(golden) as fh:
        expected = json.load(fh)["cases"]
    text = report(cases, expected, name)
    if text:
        sys.stdout.write(text)
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
