"""Write tests/data/stats_golden.json: the exact values of library statistics.

    PYTHONPATH=src python3 tests/data/make_stats_golden.py [--check]

Each case is one call of a statistic on one of four kernels (``sdho``,
``ou``, ``rq``, ``se``): finite-window variances, up and total, at
T = 3 and 30 tau_slow; long-time rates, up and total, at u/sigma in
{0, 0.5, 1.5}; zero-level statistics, up and total; and one 9-level row.
It records ``float.hex`` of mean, variance and quad_error, with the
converged flag and the evaluation count, so ``tests/test_stats_golden.py``
fails on any change in any bit.  A change that moves values on purpose
regenerates this file and reports the drift.  ``--check`` writes nothing:
it computes every case again, lists every one that differs from this file
and exits 1 (0 if every case matches).
"""

from __future__ import annotations

import math
import os
import sys

import _golden
from levelcross import crossings as cr
from levelcross import kernels as kn

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "stats_golden.json")

KERNELS = {
    "sdho": lambda: kn.make_sdho(1.0, 0.7, 1.0),
    "ou": lambda: kn.make_ou_mean_revert(1.0, 0.3, 1.0),
    "rq": lambda: kn.make_rational_quadratic(1.0, 1.0, 2.0),
    "se": lambda: kn.make_squared_exponential(1.0, 1.0),
}
ROW = tuple(0.25 * k for k in range(9))  # levels in units of sigma


def _calls(kernel):
    """(label, thunk) for every case on one kernel."""
    sigma = math.sqrt(kernel.r0)
    for mode in ("up", "total"):
        for m in (3.0, 30.0):
            yield (f"variance_count {mode} T={m}",
                   lambda mode=mode, m=m: cr.variance_count(kernel, 0.5 * sigma, m * kernel.tau_slow, mode))
        for level in (0.0, 0.5, 1.5):
            yield (f"variance_rate_asymptotic {mode} u={level}",
                   lambda mode=mode, level=level: cr.variance_rate_asymptotic(kernel, level * sigma, mode))
        yield f"zero_level_stats {mode}", lambda mode=mode: cr.zero_level_stats(kernel, None, mode)
    yield "row up", lambda: cr.variance_rate_asymptotic(kernel, [level * sigma for level in ROW], "up")


def _record(st: cr.CrossingStats) -> dict:
    return {"mean": float.hex(st.mean), "variance": float.hex(st.variance),
            "quad_error": float.hex(st.quad_error), "converged": bool(st.quad_converged),
            "evaluations": st.evaluations}


def compute() -> list[dict]:
    """Every case's label and recorded values (a raising call records its error)."""
    cases = []
    for family, make in KERNELS.items():
        kernel = make()
        for label, call in _calls(kernel):
            try:
                result = call()
            except ArithmeticError as exc:
                values = {"error": type(exc).__name__}
            else:
                values = [_record(st) for st in result] if isinstance(result, tuple) else _record(result)
            cases.append({"case": f"{family} {label}", "values": values})
    return cases


def name(case: dict) -> str:
    """The label ``--check`` and the golden tests list a differing case by."""
    return case["case"]


if __name__ == "__main__":
    sys.exit(_golden.main(sys.argv[1:], GOLDEN, compute, name))
