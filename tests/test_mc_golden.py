"""Monte Carlo estimates against committed bits (tests/data/mc_golden.json).

The fixture was written by tests/data/make_mc_golden.py.  Every path, count
and bootstrap error of a seeded run is reproducible, so any change to how
trials are drawn, grouped or counted that moves a single bit fails here.
"""

import json
import os
import sys

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

import _golden  # noqa: E402
from make_mc_golden import GOLDEN, compute, name  # noqa: E402


def test_estimates_match_golden():
    with open(GOLDEN) as fh:
        expected = json.load(fh)["cases"]
    got = compute()
    assert got == expected, _golden.report(got, expected, name)
