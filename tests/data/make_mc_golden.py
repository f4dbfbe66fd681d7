"""Write tests/data/mc_golden.json: the exact values of Monte Carlo estimates.

    PYTHONPATH=src python3 tests/data/make_mc_golden.py [--check]

Each case is one ``estimate_stats(config, bootstrap=50)`` call of 300
trials, so that every case runs one full chunk of trials and one partial
one: the oscillator at zeta = 0.5 (up) and 2 (total) and the OU system (up),
all counted by bridge refinement, and the circulant-embedding path of two
kernels, an SE kernel (ring 2000) and an oscillator kernel whose embedding
doubles twice (ring 8000).  It records the ``repr`` of the estimate, so
``tests/test_mc_golden.py`` fails on any change in any bit of a path, a
count or a bootstrap error.  ``--check`` writes nothing: it computes every
case again, lists every one that differs from this file and exits 1
(0 if every case matches).
"""

from __future__ import annotations

import os
import sys

import _golden
from levelcross import kernels as kn
from levelcross import montecarlo as mc

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "mc_golden.json")

TRIALS = 300
BOOTSTRAP = 50


def _configs():
    """(label, SimConfig) for every case."""
    for system, label, kernel, mode in (("sdho", "sdho zeta=0.5", kn.make_sdho(1.0, 0.5, 1.0), "up"),
                                        ("sdho", "sdho zeta=2", kn.make_sdho(1.0, 2.0, 1.0), "total"),
                                        ("ou", "ou", kn.make_ou_mean_revert(1.0, 0.5, 1.0), "up")):
        yield f"{label} {mode}", mc.SimConfig(
            system=system, params=dict(kernel.params), T=20.0, dt=0.02,
            trials=TRIALS, seed=11, u=0.5, mode=mode)
    for label, kernel, dt, T in (("kernel se(1, 1)", kn.make_squared_exponential(1.0, 1.0), 0.02, 20.0),
                                 ("kernel sdho(1, 0.5, 1)", kn.make_sdho(1.0, 0.5, 1.0), 0.01, 10.0)):
        yield f"{label} up", mc.SimConfig(
            system="kernel", kernel=kernel, T=T, dt=dt, trials=TRIALS, seed=12, u=0.5, mode="up")


def compute() -> list[dict]:
    """Every case's label and the repr of its estimate."""
    return [{"case": label, "estimate": repr(mc.estimate_stats(config, bootstrap=BOOTSTRAP))}
            for label, config in _configs()]


def name(case: dict) -> str:
    """The label ``--check`` and the golden tests list a differing case by."""
    return case["case"]


if __name__ == "__main__":
    sys.exit(_golden.main(sys.argv[1:], GOLDEN, compute, name))
