"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import json
import math

import pytest

from levelcross import cli
from levelcross.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    UsageError,
    _parse_axis,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_grid_row_major(self):
        spec = SweepSpec("se", {}, [("u", 0.0, 1.0, 2, "lin"),
                                    ("tau", 1.0, 2.0, 2, "lin")],
                         ["mean_rate"], "up", None, "x.csv", False)
        pts = spec.grid()
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

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nwavelength = 3\n")
        code, _, _ = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE

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
