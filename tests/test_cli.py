"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math

import pytest

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

    def test_nonconverged_rows_exit_numeric(self, capsys, tmp_path):
        # rq with alpha_shape 0.75 does not converge at default settings; the
        # sweep still writes every row but exits with the non-convergence code.
        out = tmp_path / "sweep.csv"
        code, text, _ = run(capsys, "sweep", "--kernel", "rq", "--alpha-shape", "0.75",
                            "--axis", "u:0:1:2", "--quantity", "fano", "--out", str(out))
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

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kernel = sdho\nwavelength = 3\n")
        code, _, _ = run(capsys, "stats", "--config", str(cfg))
        assert code == EXIT_USAGE


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


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--draws", "10", "--seed", "2")
        assert code == EXIT_OK
        assert out.count("PASS") >= 4
        assert "FAIL" not in out
