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

import _golden  # noqa: E402
from make_stats_golden import GOLDEN, compute  # noqa: E402


def test_statistics_match_golden():
    with open(GOLDEN) as fh:
        expected = json.load(fh)["cases"]
    assert compute() == expected


def test_check_lists_every_differing_case(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"cases": [{"case": c, "values": 0} for c in "abc"]}))
    cases = [{"case": c, "values": v} for c, v in zip("abc", (1, 0, 1))]
    assert _golden.check(cases, str(golden), lambda case: case["case"]) == 1
    assert capsys.readouterr().out == "differs: a\ndiffers: c\n"
    assert _golden.check([{"case": "a", "values": 0}], str(golden), lambda case: case["case"]) == 1
    assert capsys.readouterr().out == "differs: 1 cases against 3 in the fixture\n"
