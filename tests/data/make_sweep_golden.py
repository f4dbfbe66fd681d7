"""Write tests/data/sweep_golden.json: the exact bytes of a few sweeps.

    PYTHONPATH=src python3 tests/data/make_sweep_golden.py [--check]

Each case is a ``levelcross sweep`` argument list (without ``--out``), its
exit code and the CSV file it writes.  ``tests/test_sweep_golden.py`` runs
every case again and compares the bytes, so any change in a sweep value,
however small, fails loudly.  A change that moves values on purpose
regenerates this file and reports the drift.  ``--check`` writes nothing:
it runs every case again, prints the first one that differs from this file
and exits 1 (0 if every case matches).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from levelcross.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "sweep_golden.json")

# OU and oscillator rows, up and total crossings, fano and var_rate; a
# heavy-tailed rq row, whose levels' meshes differ most; an ou row whose last
# levels' means underflow to 0; two sweeps with no u axis, one level a row.
CASES = [
    ["sweep", "--kernel", "sdho", "--zeta", "0.5", "--axis", "u:0:2:9", "--quantity", "fano"],
    ["sweep", "--kernel", "sdho", "--axis", "u:-1:1.5:6", "--axis", "zeta:0.3:3:3:log",
     "--mode", "total", "--quantity", "mean_rate,var_rate,fano"],
    ["sweep", "--kernel", "sdho", "--axis", "u:-1:1.5:6", "--axis", "zeta:0.3:3:3:log",
     "--mode", "total", "--quantity", "mean_rate,var_rate,fano", "--jobs", "2"],
    ["sweep", "--kernel", "ou", "--tau-f", "0.3", "--axis", "u:0:2:9", "--quantity", "var_rate,fano"],
    ["sweep", "--kernel", "ou", "--axis", "tau_f:0.05:5:3:log", "--axis", "u:0:1.5:4",
     "--mode", "total", "--quantity", "fano"],
    ["sweep", "--kernel", "rq", "--alpha-shape", "0.75", "--axis", "u:0:2:9",
     "--quantity", "var_rate,fano"],
    ["sweep", "--kernel", "ou", "--axis", "u:0:40:9", "--mode", "total",
     "--quantity", "mean_rate,var_rate,fano"],
    ["sweep", "--kernel", "sdho", "--zeta", "0.3", "--axis", "u:-1:2:9", "--quantity", "fano"],
    ["sweep", "--kernel", "sdho", "--u", "0.5", "--axis", "zeta:0.3:3:5:log",
     "--quantity", "var_rate,fano"],
    ["sweep", "--kernel", "ou", "--u", "1", "--mode", "total", "--axis", "tau_f:0.05:5:5:log"],
]


def run_case(argv: list[str], directory: str) -> dict:
    """Run one sweep into directory; returns its exit code and CSV text."""
    out = os.path.join(directory, "sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
    with open(out) as fh:
        return {"argv": argv, "exit": code, "csv": fh.read()}


def main_(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.stderr.write("usage: make_sweep_golden.py [--check]\n")
        return 2
    with tempfile.TemporaryDirectory() as directory:
        cases = [run_case(case, directory) for case in CASES]
    if argv:
        return check(cases)
    with open(GOLDEN, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(cases)} cases to {GOLDEN}\n")
    return 0


def check(cases: list[dict]) -> int:
    """Compare regenerated cases with the fixture's; print the first that
    differs and return 1, or 0 if all match."""
    with open(GOLDEN) as fh:
        expected = json.load(fh)["cases"]
    for got, want in zip(cases, expected):
        if got != want:
            sys.stdout.write(f"differs: {' '.join(want['argv'])}\n")
            return 1
    if len(cases) != len(expected):
        sys.stdout.write(f"differs: {len(cases)} cases against {len(expected)} in the fixture\n")
        return 1
    sys.stdout.write(f"all {len(cases)} cases match {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
