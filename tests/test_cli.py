"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from levelcross import cli
from levelcross.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _grid,
    _parse_axis,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Kernels whose short-lag series overflows floats, though their moments are floats.
SERIES_OVERFLOWS = [
    "--kernel se --tau 1e-19", "--kernel se --tau 1e-21", "--kernel ou --tau-f 1e-25 --tau-e 1e-25",
    "--kernel se --tau 1e-100", "--kernel rq --tau 1e-30",
    "--kernel rq --tau 1e-150 --alpha-shape 1e-30",
]


class TestStats:
    def test_default_sdho_zero_level(self, capsys):
        code, out, _ = run(capsys, "stats", "--kernel", "sdho")
        assert code == EXIT_OK
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(fields["mean_rate"]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        assert float(fields["mean_rate"]) == pytest.approx(0.15915, abs=1e-5)

    def test_total_mode_doubles_mean(self, capsys):
        code, out, _ = run(capsys, "stats", "--kernel", "sdho", "--mode", "total")
        assert code == EXIT_OK
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(fields["mean_rate"]) == pytest.approx(0.31831, abs=1e-5)

    @pytest.mark.parametrize("zeta", ["1e6", "1e7"])
    def test_extreme_damping_converges(self, capsys, zeta):
        # r - r0 formed as a difference lost D_beta's sign at t = 5.09e-08 (exit 2).
        code, out, _ = run(capsys, "stats", "--kernel", "sdho", "--zeta", zeta, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["converged"] is True

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "stats", "--kernel", "se", "--u", "0.7", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kernel"] == "se"
        assert doc["u"] == 0.7
        assert doc["converged"] is True
        assert doc["var_rate"] > 0

    @pytest.mark.parametrize("shape", [(), ("--alpha-shape", "0.75")])
    def test_rq_converges(self, capsys, shape):
        # The power-law tail is integrated to the end, so rq converges.
        code, out, _ = run(capsys, "stats", "--kernel", "rq", "--u", "0.5", *shape, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["var_rate"] > 0

    def test_far_level_has_no_crossings(self, capsys):
        # The mean rate underflows to 0: variance 0, no Fano factor, nothing integrated.
        code, out, err = run(capsys, "stats", "--kernel", "sdho", "--u", "1e300", "--json")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert [doc[k] for k in ("mean_rate", "var_rate", "fano", "quad_error", "converged")] == [
            0.0, 0.0, None, 0.0, True]

    @pytest.mark.parametrize("shape, u", [("0.3", "0.5"), ("1e-12", "0"), ("0.5", "0.5"), ("0.2", "0")])
    def test_divergent_long_time_rate_exits_in_one_line(self, capsys, shape, u):
        code, out, err = run(capsys, "stats", "--kernel", "rq", "--alpha-shape", shape, "--u", u)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert len(err.splitlines()) == 1 and "diverges" in err and f"k = {2 * float(shape)!r}" in err

    def test_damping_past_double_precision(self, capsys):
        # zeta^2 - 1 rounds to zeta^2 at zeta = 1e8: the kernel is built, and
        # the statistic converges or exits with a one-line message.
        code, _, err = run(capsys, "stats", "--kernel", "sdho", "--zeta", "1e8")
        assert code in (EXIT_OK, EXIT_NUMERIC)
        assert len(err.splitlines()) == (code == EXIT_NUMERIC) and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        "--kernel se --tau 1e-160", "--kernel se --sigma 1e-200", "--kernel sdho --omega0 1e-200",
        "--kernel rq --tau 1e-200", "--kernel sdho --omega0 1e200", "--kernel se --sigma 1e200",
        "--kernel ou --sigma 1e200", "--kernel sdho --theta 1e-300", "--kernel rq --tau 1e300",
        *SERIES_OVERFLOWS, "--kernel sdho --theta 1e-150",
    ])
    def test_extreme_finite_parameters_end_in_one_line(self, capsys, flags):
        # Squares and ratios of these parameters leave the float range: the run
        # ends in one line on stderr (a warning would be another), not a traceback.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "stats", *shlex.split(flags))
        assert code in (EXIT_USAGE, EXIT_NUMERIC)
        assert len(err.splitlines()) + len(caught) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flags", SERIES_OVERFLOWS)
    def test_series_out_of_float_range_names_parameter(self, capsys, flags):
        # The short-lag series of these kernels cannot be formed in floats:
        # a usage error that names the timescale, checked once per kernel.
        code, _, err = run(capsys, "stats", *shlex.split(flags))
        name = shlex.split(flags)[2].lstrip("-").replace("-", "_")
        assert code == EXIT_USAGE
        assert f"{name}=" in err and "short-lag series" in err

    def test_failing_gate_names_only_failed_checks(self, capsys):
        code, _, err = run(capsys, "stats", "--kernel", "se", "--sigma", "1e-150")
        assert code == EXIT_NUMERIC
        assert "positive_moments" in err and "series_matches" not in err

    def test_horizon_block(self, capsys):
        code, out, _ = run(capsys, "stats", "--kernel", "sdho", "--u", "0.5",
                           "--horizon", "50", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mean_count"] == pytest.approx(50.0 * doc["mean_rate"], rel=1e-12)
        assert doc["count_ratio"] == pytest.approx(
            doc["variance_count"] / doc["mean_count"], rel=1e-12
        )

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "stats.json"
        code, out, _ = run(capsys, "stats", "--kernel", "sdho", "--json",
                           "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["kernel"] == "sdho"


class TestUsageErrors:
    def test_invalid_kernel_parameter(self, capsys):
        code, _, err = run(capsys, "stats", "--kernel", "sdho", "--zeta", "-1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_kernel(self, capsys):
        code, _, err = run(capsys, "stats")
        assert code == EXIT_USAGE

    def test_bad_axis_spec(self, capsys):
        code, _, _ = run(capsys, "sweep", "--kernel", "se", "--axis", "u:0")
        assert code == EXIT_USAGE

    BAD_NUMBERS = [
        (["stats", "--horizon", "-1"], "--horizon"),
        (["stats", "--horizon", "0"], "--horizon"),
        (["stats", "--horizon", "nan"], "--horizon"),
        (["stats", "--rel-tol", "0"], "--rel-tol"),
        (["stats", "--abs-tol", "-1"], "--abs-tol"),
        (["stats", "--u", "nan"], "--u"),
        (["sweep", "--axis", "u:0:1:2", "--rel-tol", "0"], "--rel-tol"),
        (["sweep", "--axis", "u:0:1:2", "--abs-tol", "-1"], "--abs-tol"),
        (["sweep", "--axis", "u:nan:2:3"], "--axis"),
        (["sweep", "--axis", "u:0:1:2", "--jobs", "0"], "--jobs"),
        (["sweep", "--axis", "u:0:1:2", "--jobs", "-3"], "--jobs"),
        (["simulate", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--draws", "0"], "--draws"),
        (["verify", "--draws", "-3"], "--draws"),
    ]

    @pytest.mark.parametrize("argv, flag", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
    def test_bad_numeric_input_is_usage_error(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "sweep.csv"
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        kernel = [] if argv[0] == "verify" else ["--kernel", "sdho"]
        code, text, err = run(capsys, argv[0], *kernel, *argv[1:], *extra)
        assert code == EXIT_USAGE
        assert text == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and flag in err

    FOREIGN_PARAMETERS = [
        (["stats", "--kernel", "se", "--zeta", "5"], "--zeta", "se"),
        (["sweep", "--kernel", "sdho", "--axis", "u:0:1:2", "--tau-f", "0.1"], "--tau-f", "sdho"),
        (["simulate", "--kernel", "ou", "--alpha-shape", "2"], "--alpha-shape", "ou"),
    ]

    @pytest.mark.parametrize("argv, flag, family", FOREIGN_PARAMETERS,
                             ids=[a[0] for a, _, _ in FOREIGN_PARAMETERS])
    def test_parameter_of_another_family_is_usage_error(self, capsys, tmp_path, argv, flag, family):
        out = tmp_path / "out.csv"
        code, text, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_USAGE
        assert text == "" and not out.exists()
        assert err == f"usage error: {flag} is not a parameter of {family!r}\n"

    def test_repeated_axis_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:2:3",
                           "--axis", "u:0:1:2", "--out", str(out))
        assert code == EXIT_USAGE
        assert err == "usage error: axis 'u' given more than once\n"
        assert not out.exists()

    AXIS_ERRORS = [
        (["--axis", "u:0:1:2", "--axis", "zeta:1:2:2", "--axis", "theta:1:2:2"],
         "sweep needs 1 or 2 --axis options"),
        (["--axis", "u:0:1:1"], "axis 'u': need at least 2 points"),
        (["--axis", "zeta:-1:1:3:log"], "axis 'zeta': log scale needs positive bounds"),
        (["--axis", "tau:1:2:2"], "axis 'tau' not a parameter of kernel 'sdho'"),
        (["--axis", "u:a:1:2"], "bad --axis 'u:a:1:2': could not convert string to float: 'a'"),
        (["--axis", "u:0:1:2.5"], "bad --axis 'u:0:1:2.5': points must be an integer (got '2.5')"),
    ]

    @pytest.mark.parametrize("axes, message", AXIS_ERRORS,
                             ids=["three-axes", "one-point", "log-nonpositive", "foreign-axis",
                                  "bad-number", "fractional-points"])
    def test_bad_axis_set_is_usage_error(self, capsys, tmp_path, axes, message):
        out = tmp_path / "sweep.csv"
        code, text, err = run(capsys, "sweep", "--kernel", "sdho", *axes, "--out", str(out))
        assert (code, text) == (EXIT_USAGE, "")
        assert err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("quantity", ["", "fano,fano", "fano,speed"])
    def test_bad_quantity_list_is_usage_error(self, capsys, tmp_path, quantity):
        out = tmp_path / "sweep.csv"
        code, text, err = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:1:2",
                              "--quantity", quantity, "--out", str(out))
        assert code == EXIT_USAGE
        assert text == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: --quantity ")

    UNWRITABLE = [
        ["stats", "--kernel", "sdho"],
        ["sweep", "--kernel", "sdho", "--axis", "u:0:1:2", "--quantity", "fano"],
        ["simulate", "--kernel", "sdho", "--horizon", "10", "--trials", "50", "--seed", "1"],
    ]

    @pytest.mark.parametrize("argv", UNWRITABLE, ids=[a[0] for a in UNWRITABLE])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "out.json"
        code, text, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_USAGE
        assert text == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: cannot write --out {out}: ")

    @pytest.mark.parametrize("name, reason", [("missing/x.csv", "No such file or directory"),
                                              (".", "Is a directory")], ids=["no-dir", "is-dir"])
    def test_sweep_checks_out_before_computing(self, capsys, tmp_path, monkeypatch, name, reason):
        calls = []
        monkeypatch.setattr(cli, "_sweep_kernel", lambda task: calls.append(task))
        out = tmp_path / name
        code, text, err = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:1:2",
                              "--out", str(out))
        assert (code, text, calls) == (EXIT_USAGE, "", [])
        assert err == f"usage error: cannot write --out {out}: {reason}\n"

    def test_parse_axis(self):
        assert _parse_axis("u:0:2:5") == ("u", 0.0, 2.0, 5, "lin")
        assert _parse_axis("tau:0.1:10:7:log") == ("tau", 0.1, 10.0, 7, "log")
        with pytest.raises(UsageError):
            _parse_axis("u:0:2:5:cubic")


class TestSweep:
    def test_two_point_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, text, _ = run(capsys, "sweep", "--kernel", "se",
                            "--axis", "u:0:1:2", "--out", str(out))
        assert code == EXIT_OK
        assert "wrote 2 rows" in text
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("[amplitude]" in c for c in comments)
        header = next(l for l in lines if not l.startswith("#"))
        cols = header.split(",")
        assert cols[0] == "u" and "fano" in cols
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2

    def test_float_round_trip_17_digits(self, capsys, tmp_path):
        from levelcross.crossings import variance_rate_asymptotic
        from levelcross.kernels import make_squared_exponential
        out = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--kernel", "se", "--axis", "u:0.7:1.4:2",
            "--out", str(out))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        st = variance_rate_asymptotic(make_squared_exponential(1.0, 1.0), 0.7, "up")
        assert float(row["mean_rate"]) == st.mean
        assert float(row["var_rate"]) == st.variance
        assert float(row["fano"]) == st.fano

    def test_deterministic_bytes_and_parallel(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        args = ["sweep", "--kernel", "sdho", "--axis", "u:0:1:3",
                "--axis", "zeta:0.5:2:2"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        run(capsys, *args, "--out", str(c), "--jobs", "2")
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        assert len([l for l in a.read_text().splitlines()
                    if not l.startswith("#")]) == 1 + 6  # header + 3x2 grid

    def test_json_mirror(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--kernel", "se", "--axis", "u:0:1:2",
            "--out", str(out), "--json")
        rows = json.loads((tmp_path / "sweep.json").read_text())
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        assert float(lines[1].split(",")[1]) == rows[0]["mean_rate"]

    def test_json_out_direct(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "sweep", "--kernel", "se",
                         "--axis", "u:0:1:2", "--out", str(out))
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 2 and rows[0]["converged"] is True

    def test_one_kernel_per_parameter_set(self, capsys, tmp_path, monkeypatch):
        # u is the outer axis, so each kernel's points are not adjacent in the
        # grid; zeta = -1 is invalid and gives NaN rows that keep their place.
        import levelcross.cli as cli
        made = []
        original = cli._make_kernel
        monkeypatch.setattr(cli, "_make_kernel",
                            lambda family, params: made.append(params["zeta"]) or original(family, params))
        out = tmp_path / "sweep.json"
        code, _, err = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:1:3",
                           "--axis", "zeta:-1:1:2", "--quantity", "fano", "--out", str(out))
        assert code == EXIT_NUMERIC
        assert made == [-1.0, 1.0]
        # One stderr line per row that raised, with its axis values and the reason.
        assert err.splitlines() == [
            f"sweep row u={u}, zeta=-1: KernelError: zeta must be > 0 "
            "(undamped process never decorrelates)"
            for u in ("0", "0.5", "1")
        ]
        rows = json.loads(out.read_text())
        assert [(r["u"], r["zeta"]) for r in rows] == [(u, z) for u in (0.0, 0.5, 1.0)
                                                      for z in (-1.0, 1.0)]
        assert [r["converged"] for r in rows] == [False, True] * 3
        assert all(math.isnan(r["fano"]) != r["converged"] for r in rows)

    def test_failed_level_keeps_its_row(self, capsys, tmp_path, monkeypatch):
        # One level of one row raises: that row is NaN with one stderr line,
        # and every other row has the bytes of the sweep without the fault.
        import levelcross.crossings as cr
        args = ["sweep", "--kernel", "sdho", "--axis", "zeta:0.5:2:2", "--axis", "u:0:1:3",
                "--quantity", "var_rate,fano"]
        clean, faulty = tmp_path / "clean.csv", tmp_path / "faulty.csv"
        assert run(capsys, *args, "--out", str(clean))[0] == EXIT_OK
        original = cr._assemble

        def assemble(kernel, u, *rest):
            if kernel.zeta == 0.5 and u == 0.5:
                raise cr.DegenerateLagError("injected")
            return original(kernel, u, *rest)

        monkeypatch.setattr(cr, "_assemble", assemble)
        code, _, err = run(capsys, *args, "--out", str(faulty))
        assert code == EXIT_NUMERIC
        assert err == "sweep row zeta=0.5, u=0.5: DegenerateLagError: injected\n"
        clean_lines = clean.read_text().splitlines()
        faulty_lines = faulty.read_text().splitlines()
        changed = [i for i, (a, b) in enumerate(zip(clean_lines, faulty_lines)) if a != b]
        assert len(faulty_lines) == len(clean_lines) and len(changed) == 1
        assert faulty_lines[changed[0]] == "0.5,0.5,nan,nan,nan,false"

    def test_divergent_levels_get_nan_rows(self, capsys, tmp_path):
        # rq at 2 alpha = 0.8: the u = 0 integral converges, the others diverge.
        out = tmp_path / "sweep.json"
        code, _, err = run(capsys, "sweep", "--kernel", "rq", "--alpha-shape", "0.4",
                           "--axis", "u:0:1:3", "--quantity", "fano", "--out", str(out))
        assert code == EXIT_NUMERIC
        assert [line.split(":")[0] for line in err.splitlines()] == ["sweep row u=0.5", "sweep row u=1"]
        assert "diverges" in err
        rows = json.loads(out.read_text())
        assert [r["converged"] for r in rows] == [True, False, False]
        assert math.isfinite(rows[0]["fano"]) and math.isnan(rows[1]["fano"])

    def test_far_levels_keep_converged_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, _, err = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:1e300:3",
                           "--quantity", "var_rate,fano", "--out", str(out))
        assert (code, err) == (EXIT_OK, "")
        rows = json.loads(out.read_text())
        assert rows[0]["var_rate"] > 0.0 and math.isfinite(rows[0]["fano"])
        for row in rows[1:]:
            assert (row["var_rate"], row["quad_error"], row["converged"]) == (0.0, 0.0, True)
            assert math.isnan(row["fano"])

    def test_extreme_rows_end_in_one_line_each(self, capsys, tmp_path):
        # Two timescales whose short-lag series overflows floats: one line
        # per failed row, naming the kernel, and no warning line.
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "sweep", "--kernel", "se", "--axis", "tau:1e-100:1:3:log",
                               "--out", str(out))
        assert code == EXIT_NUMERIC and caught == []
        assert [line.split(": ", 2)[:2] for line in err.splitlines()] == [
            ["sweep row tau=1e-100", "KernelError"], ["sweep row tau=1e-50", "KernelError"]]
        assert all("tau=" in line.split(": ", 2)[2] for line in err.splitlines())
        assert out.read_text().splitlines()[-1].endswith(",true")

    def test_booleans_spelled_one_way(self, capsys, tmp_path):
        # Two rows whose kernel is invalid and one converged row, in one column.
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--kernel", "sdho", "--axis", "zeta:-1:1:3",
                         "--quantity", "fano", "--out", str(out))
        assert code == EXIT_NUMERIC
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["false", "false", "true"]

    def test_calls_in_one_process_match_fresh_parsers(self, capsys, tmp_path):
        # main() builds its parser once; repeated --axis options must not
        # carry over from one call into the next.
        import levelcross.cli as cli
        first = ["sweep", "--kernel", "se", "--axis", "u:0:1:2", "--axis", "tau:0.5:1:2"]
        second = ["sweep", "--kernel", "sdho", "--axis", "u:0:1:3", "--quantity", "fano"]
        for name, argv in (("a", first), ("b", second)):
            assert run(capsys, *argv, "--out", str(tmp_path / f"{name}.csv"))[0] == EXIT_OK
            args = cli.build_parser().parse_args([*argv, "--out", str(tmp_path / f"{name}-fresh.csv")])
            assert args.func(args) == EXIT_OK
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}-fresh.csv").read_bytes()
        assert cli._parser() is cli._parser()

    def test_nonconverged_rows_exit_numeric(self, capsys, tmp_path):
        # A relative tolerance below double precision cannot be met; the
        # sweep still writes every row but exits with the non-convergence code.
        out = tmp_path / "sweep.csv"
        code, text, _ = run(capsys, "sweep", "--kernel", "sdho", "--axis", "u:0:1:2",
                            "--rel-tol", "1e-16", "--abs-tol", "1e-300",
                            "--quantity", "fano", "--out", str(out))
        assert code == EXIT_NUMERIC
        assert "wrote 2 rows" in text
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(r["fano"])) for r in rows)

    POOLS = [
        ("u:0:1:3", 4, 8, []),  # one parameter set runs in-process
        ("zeta:0.5:2:3", 8, 2, [2]),  # no more workers than CPUs
        ("zeta:0.5:2:3", 8, 16, [3]),  # nor than parameter sets
        ("zeta:0.5:2:3", 2, 16, [2]),
        ("zeta:0.5:2:3", 4, None, []),  # an unknown CPU count counts as one
    ]

    @pytest.mark.parametrize("axis, jobs, cpus, pools", POOLS)
    def test_worker_count(self, capsys, tmp_path, monkeypatch, axis, jobs, cpus, pools):
        import concurrent.futures
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, _, _ = run(capsys, "sweep", "--kernel", "sdho", "--axis", axis, "--jobs", str(jobs),
                         "--quantity", "mean_rate", "--out", str(tmp_path / "sweep.csv"))
        assert code == EXIT_OK
        assert started == pools

    def test_grid_row_major(self):
        pts = _grid("se", [("u", 0.0, 1.0, 2, "lin"), ("tau", 1.0, 2.0, 2, "lin")])
        assert [p["u"] for p in pts] == [0.0, 0.0, 1.0, 1.0]
        assert [p["tau"] for p in pts] == [1.0, 2.0, 1.0, 2.0]


class TestConfig:
    def test_config_supplies_kernel_and_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# example configuration\nkernel = sdho\nzeta = 2.0\nu = 0.5\n")
        code, out, _ = run(capsys, "stats", "--config", str(cfg), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kernel"] == "sdho" and doc["zeta"] == 2.0 and doc["u"] == 0.5

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nu = 0.5\n")
        code, out, _ = run(capsys, "stats", "--config", str(cfg),
                           "--u", "1.5", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["u"] == 1.5

    def test_unparsable_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nu = abc\n")
        code, _, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("usage error: config key 'u': ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["maybe", "ture"])
    def test_bad_config_boolean_is_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kernel = sdho\njson = {value}\n")
        code, out, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: config key 'json': ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("kernel = sdho\nmode = sideways\n",
         "config key 'mode': expected one of up, down, total, got 'sideways'"),
        ("kernel = nope\n", "config key 'kernel': expected one of sdho, ou, rq, se, got 'nope'"),
    ], ids=["mode", "kernel"])
    def test_config_value_outside_choices_is_usage_error(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err == f"usage error: {message}\n"

    def test_config_reads_like_flags(self, capsys, tmp_path):
        # Repeatable --axis as a ';'-separated list; the --json switch as a word.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\naxis = u:0:1:3; zeta:0.5:2:2\nquantity = fano\njson = on\n")
        flags = ["--kernel", "sdho", "--axis", "u:0:1:3", "--axis", "zeta:0.5:2:2",
                 "--quantity", "fano", "--json"]
        assert run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))[0] == EXIT_OK
        assert run(capsys, "sweep", *flags, "--out", str(tmp_path / "b.csv"))[0] == EXIT_OK
        for ext in ("csv", "json"):
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

    def test_config_file_read_once(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nu = 0.5\n")
        reads = []
        original = cli._load_config
        monkeypatch.setattr(cli, "_load_config", lambda path: reads.append(path) or original(path))
        assert run(capsys, "stats", "--config", str(cfg))[0] == EXIT_OK
        assert reads == [str(cfg)]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nwavelength = 3\n")
        code, _, _ = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_config_key_of_another_family_reads_like_its_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = se\nzeta = 5\n")
        code, out, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: config key 'zeta' is not a parameter of 'se'\n"

    def test_config_key_of_no_family_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = se\nwavelength = 3\n")
        code, out, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: unknown config keys: ['wavelength']\n"

    def test_tail_cutoff_is_unknown_key(self, capsys, tmp_path):
        # The statistics fix their tail policy; no option sets the cutoff.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = rq\ntail_cutoff = 50\n")
        code, out, err = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: unknown config keys: ['tail_cutoff']\n"

    def test_every_config_key_is_a_flag(self):
        # A config key a command accepts but has no flag for would be read
        # and then ignored.
        defaults = {"stats": cli._STATS_DEFAULTS, "sweep": cli._SWEEP_DEFAULTS,
                    "simulate": cli._SIM_DEFAULTS, "verify": cli._VERIFY_DEFAULTS}
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert sorted(subs.choices) == sorted(defaults)
        for name, parser in subs.choices.items():
            flags = {a.dest for a in parser._actions}
            assert set(defaults[name]) <= flags, name


class TestSimulate:
    def test_small_run_consistent(self, capsys):
        code, out, _ = run(capsys, "simulate", "--kernel", "sdho",
                           "--u", "0.0", "--horizon", "30", "--trials", "200",
                           "--seed", "1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["mean_z"]) < 4.0
        assert abs(doc["variance_z"]) < 4.0
        assert doc["trials"] == 200

    def test_uncrossed_level_is_not_a_statistical_failure(self, capsys):
        # No trial crosses u = 8 sigma: the sample SEs are 0 and no
        # resample has a Fano factor.  The mean's SE comes from the analytic
        # variance; the other z-scores have no SE and read NaN.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "simulate", "--kernel", "sdho", "--u", "8",
                               "--horizon", "10", "--trials", "50", "--seed", "1", "--json")
        assert code == EXIT_OK
        assert not caught
        doc = json.loads(out)
        assert doc["mean_simulated"] == 0 and doc["mean_se"] == 0
        assert math.isfinite(doc["mean_z"]) and abs(doc["mean_z"]) < 4.0
        assert math.isnan(doc["variance_z"]) and math.isnan(doc["fano_se"])
        assert math.isnan(doc["fano_z"])

    def test_states_how_it_counts(self, capsys):
        code, out, _ = run(capsys, "simulate", "--kernel", "sdho", "--horizon", "10",
                           "--trials", "20", "--seed", "1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count"] == "continuous-time"
        assert "mean_sampled_exact" not in doc and "bias_pct" not in doc

    def test_states_sampled_count_bias(self, capsys):
        from levelcross import montecarlo as mc

        code, out, _ = run(capsys, "simulate", "--kernel", "se", "--u", "0.5", "--mode", "total",
                           "--horizon", "20", "--trials", "20", "--seed", "1",
                           "--dt-factor", "0.05", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        config = mc.SimConfig(system="kernel", kernel=cli.kn.make_squared_exponential(1.0, 1.0),
                              T=20.0, dt=doc["dt"], trials=20, u=0.5, mode="total")
        assert doc["count"] == "sampled"
        assert doc["mean_sampled_exact"] == mc.sampled_mean_exact(config)
        assert doc["bias_pct"] == pytest.approx(
            100.0 * (doc["mean_sampled_exact"] / doc["mean_analytic"] - 1.0), rel=1e-12)
        # Sampling can only miss crossings.
        assert -1.0 < doc["bias_pct"] < 0.0

    def test_rejects_ou_via_kernel_flag_misuse(self, capsys):
        code, _, _ = run(capsys, "simulate", "--kernel", "rq", "--trials", "x")
        assert code == EXIT_USAGE

    def test_simulation_config_error_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--kernel", "sdho",
                             "--dt-factor", "0.2", "--trials", "10")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and "dt" in err


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--draws", "10", "--seed", "2")
        assert code == EXIT_OK
        assert out.count("PASS") >= 4
        assert "FAIL" not in out


class TestReadme:
    def test_documented_commands_resolve(self):
        # Every levelcross command in the README's code blocks parses, and
        # its options resolve; nothing is computed.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                 for line in block.splitlines() if line.startswith("levelcross ")]
        assert lines
        defaults = {"stats": cli._STATS_DEFAULTS, "sweep": cli._SWEEP_DEFAULTS,
                    "simulate": cli._SIM_DEFAULTS, "verify": cli._VERIFY_DEFAULTS}
        for line in lines:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
            cli._merge(args, defaults[args.command])
