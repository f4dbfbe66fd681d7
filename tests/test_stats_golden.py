"""Library statistics against committed bits (tests/data/stats_golden.json).

The fixture was written by tests/data/make_stats_golden.py.  It pins what the
sweep golden does not cover: finite windows, the ``rq`` and ``se`` families,
zero-level statistics and total crossings.  A change that moves values on
purpose regenerates it and reports the drift.
"""

import json
import os
import sys

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

from make_stats_golden import GOLDEN, compute  # noqa: E402


def test_statistics_match_golden():
    with open(GOLDEN) as fh:
        expected = json.load(fh)["cases"]
    assert compute() == expected
