"""Write tests/data/sweep_golden.json: the exact bytes of a few sweeps.

    PYTHONPATH=src python3 tests/data/make_sweep_golden.py

Each case is a ``levelcross sweep`` argument list (without ``--out``), its
exit code and the CSV file it writes.  ``tests/test_sweep_golden.py`` runs
every case again and compares the bytes, so any change in a sweep value,
however small, fails loudly.  A change that moves values on purpose
regenerates this file and reports the drift.
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

# OU and oscillator rows, up and total crossings, fano and var_rate.
CASES = [
    ["sweep", "--kernel", "sdho", "--zeta", "0.5", "--axis", "u:0:2:9", "--quantity", "fano"],
    ["sweep", "--kernel", "sdho", "--axis", "u:-1:1.5:6", "--axis", "zeta:0.3:3:3:log",
     "--mode", "total", "--quantity", "mean_rate,var_rate,fano"],
    ["sweep", "--kernel", "sdho", "--axis", "u:-1:1.5:6", "--axis", "zeta:0.3:3:3:log",
     "--mode", "total", "--quantity", "mean_rate,var_rate,fano", "--jobs", "2"],
    ["sweep", "--kernel", "ou", "--tau-f", "0.3", "--axis", "u:0:2:9", "--quantity", "var_rate,fano"],
    ["sweep", "--kernel", "ou", "--axis", "tau_f:0.05:5:3:log", "--axis", "u:0:1.5:4",
     "--mode", "total", "--quantity", "fano"],
]


def run_case(argv: list[str], directory: str) -> dict:
    """Run one sweep into directory; returns its exit code and CSV text."""
    out = os.path.join(directory, "sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
    with open(out) as fh:
        return {"argv": argv, "exit": code, "csv": fh.read()}


def main_() -> int:
    with tempfile.TemporaryDirectory() as directory:
        cases = [run_case(argv, directory) for argv in CASES]
    with open(GOLDEN, "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(cases)} cases to {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
