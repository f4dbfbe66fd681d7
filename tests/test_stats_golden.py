"""Library statistics against committed bits (tests/data/stats_golden.json).

The fixture was written by tests/data/make_stats_golden.py.  It pins what the
sweep golden does not cover: finite windows, the ``rq`` and ``se`` families,
zero-level statistics and total crossings.  A change that moves values on
purpose regenerates it and reports the drift.
"""

import json
import os
import sys

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
sys.path.insert(0, DATA)

import _golden  # noqa: E402
from make_stats_golden import GOLDEN, compute, name  # noqa: E402


def test_statistics_match_golden():
    with open(GOLDEN) as fh:
        expected = json.load(fh)["cases"]
    got = compute()
    assert got == expected, _golden.report(got, expected, name)


def test_check_lists_every_differing_case(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"cases": [{"case": c, "values": 0} for c in "abc"]}))
    cases = [{"case": c, "values": v} for c, v in zip("abc", (1, 0, 1))]
    assert _golden.check(cases, str(golden), lambda case: case["case"]) == 1
    assert capsys.readouterr().out == "differs: a\n  values: inf\ndiffers: c\n  values: inf\n"
    assert _golden.check([{"case": "a", "values": 0}], str(golden), lambda case: case["case"]) == 1
    assert capsys.readouterr().out == "differs: 1 cases against 3 in the fixture\n"


def test_drift_reads_every_numeric_field():
    # Hex floats and JSON numbers under their keys, CSV cells under their
    # column, repr text by name; text that is no number is not a field.
    want = {"values": [{"mean": float.hex(2.0), "evaluations": 90, "converged": True}],
            "csv": "# comment, 1\nu,fano,converged\n0,1.5,true\n1,nan,true\n",
            "estimate": "SimEstimate(fano=4.0, trials=300)", "error": "ZeroDivisionError"}
    got = {"values": [{"mean": float.hex(2.0 * (1 + 2**-52)), "evaluations": 90, "converged": False}],
           "csv": "# comment, 1\nu,fano,converged\n0,1.5000003,true\n1,nan,true\n",
           "estimate": "SimEstimate(fano=5.0, trials=300)", "error": "ZeroDivisionError"}
    assert _golden.drift(got, want) == {"mean": 2**-52, "evaluations": 0.0, "u": 0.0,
                                        "fano": 0.25, "trials": 0.0}
    assert _golden.drift({"csv": "u\n1.0000003\n"}, {"csv": "u\n1\n"})["u"] == pytest.approx(3e-7)
    assert _golden.drift({"values": [1, 2]}, {"values": [1]}) == {"values": "2 numbers against 1"}
