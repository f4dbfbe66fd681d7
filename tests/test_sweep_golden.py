"""Sweep output against committed bytes (tests/data/sweep_golden.json).

The fixture was written by tests/data/make_sweep_golden.py; a change that
moves sweep values on purpose regenerates it and reports the drift.
"""

import json
import os
import sys

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

import _golden  # noqa: E402
from make_sweep_golden import GOLDEN, name, run_case  # noqa: E402

with open(GOLDEN) as fh:
    CASES = json.load(fh)["cases"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"][1:]) for c in CASES])
def test_sweep_bytes_match_golden(case, tmp_path):
    got = run_case(case["argv"], str(tmp_path))
    assert got == case, _golden.report([got], [case], name)
