"""Tests for the closed-form crossing statistics.

Brute-force oracles (2D velocity integrals, hand-evaluated rate formulas)
are defined in levelcross.montecarlo and in this file before the closed
forms are compared against them.
"""

import itertools
import json
import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelcross import crossings, quadrature

from levelcross.crossings import (
    CrossingMode,
    NegativeVarianceError,
    abg_params,
    dimensionless_fano,
    fano,
    integrand_total,
    integrand_up,
    mean_count,
    mean_rate,
    variance_count,
    variance_rate_asymptotic,
    zero_level_stats,
)
from levelcross.kernels import (
    KernelDerivatives,
    SquaredExponentialKernel,
    ValidityReport,
    make_ou_mean_revert,
    make_rational_quadratic,
    make_sdho,
    make_squared_exponential,
)
from levelcross.montecarlo import bruteforce_integrand_total, bruteforce_integrand_up
from levelcross.quadrature import IntegrationError, QuadratureResult

SDHO = make_sdho(1.0, 1.0, 1.0)
SE = make_squared_exponential(1.0, 1.0)

# The kernel families of the stats_mix benchmark workload.
STATS_MIX = [make_sdho(1.0, 0.7, 1.0), make_sdho(1.0, 1.0, 1.0), make_sdho(1.0, 2.0, 1.0),
             make_ou_mean_revert(1.0, 0.3, 1.0), make_squared_exponential(1.0, 1.0),
             make_rational_quadratic(1.0, 1.0, 0.75), make_rational_quadratic(1.0, 1.0, 2.0)]


class TestMeanRate:
    def test_zero_level_hand_value(self):
        # (1/2pi) sqrt(q0/r0) with r0 = q0 = 1.
        assert mean_rate(SDHO, 0.0, "up") == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_unit_level_hand_value(self):
        assert mean_rate(SDHO, 1.0, "up") == pytest.approx(
            math.exp(-0.5) / (2.0 * math.pi), rel=1e-15
        )
        assert mean_rate(SDHO, 1.0, "up") == pytest.approx(0.096532, abs=1e-6)

    def test_total_is_twice_up(self):
        for u in (0.0, 0.7, 2.0):
            assert mean_rate(SDHO, u, "total") == 2.0 * mean_rate(SDHO, u, "up")

    def test_down_equals_up(self):
        assert mean_rate(SDHO, 0.9, "down") == mean_rate(SDHO, 0.9, "up")

    def test_independent_of_damping(self):
        rates = {mean_rate(make_sdho(1.0, z, 1.0), 0.5, "up") for z in (0.3, 1.0, 4.0)}
        assert len(rates) == 1


class TestParameters:
    def test_positivity_random_draws(self):
        rng = np.random.default_rng(3)
        kernels = [SDHO, SE, make_ou_mean_revert(1.0, 0.5, 1.0),
                   make_rational_quadratic(1.0, 1.0, 2.0)]
        for _ in range(500):
            k = kernels[rng.integers(len(kernels))]
            t = float(rng.uniform(1e-4, 15.0)) * k.tau_slow
            pr = abg_params(k, float(rng.uniform(-2.0, 2.0)), t)
            assert pr.alpha > 0 and pr.beta > 0 and pr.delta > 0

    def test_determinant_identity(self):
        # det = (r0^2 - r^2) / (4 alpha beta) must hold by construction.
        for t in (0.3, 1.0, 4.0):
            pr = abg_params(SE, 0.5, t)
            d = SE.eval(t)
            expected = (SE.r0 ** 2 - d.r ** 2) / (4.0 * pr.alpha * pr.beta)
            assert pr.det == pytest.approx(expected, rel=1e-10)

    def test_series_and_direct_paths_agree(self, monkeypatch):
        # Force the small-lag series path and the direct path at the same
        # lag (just above the normal handover) and compare.
        import levelcross.crossings as cr
        kernels = [SDHO, SE, make_sdho(1.0, 3.0, 1.0),
                   make_ou_mean_revert(1.0, 0.2, 1.0),
                   make_rational_quadratic(1.0, 1.0, 2.0)]
        for k in kernels:
            t = 1.2 * cr._SERIES_FRACTION * k.series_scale
            direct = abg_params(k, 0.7, t)
            monkeypatch.setattr(cr, "_SERIES_FRACTION", 0.2)
            series = abg_params(k, 0.7, t)
            monkeypatch.setattr(cr, "_SERIES_FRACTION", 0.1)
            assert series.alpha == pytest.approx(direct.alpha, rel=1e-7)
            assert series.beta == pytest.approx(direct.beta, rel=1e-7)
            assert series.gamma == pytest.approx(direct.gamma, rel=1e-7)


class TestIntegrands:
    def test_up_matches_bruteforce(self):
        for k, t, u in [(SDHO, 0.8, 0.5), (SE, 1.5, 0.0),
                        (make_ou_mean_revert(1.0, 0.5, 1.0), 0.5, 1.0)]:
            closed = integrand_up(k, u, t)
            brute = bruteforce_integrand_up(k, u, t)
            assert closed == pytest.approx(brute, rel=1e-8, abs=1e-14)

    def test_total_matches_bruteforce(self):
        for k, t, u in [(SDHO, 0.8, 0.5), (SE, 1.5, 1.0)]:
            closed = integrand_total(k, u, t)
            brute = bruteforce_integrand_total(k, u, t)
            assert closed == pytest.approx(brute, rel=1e-8, abs=1e-14)

    def test_bounded_at_tiny_lag(self):
        # The defining expression is 0/0 at lag zero; the series path must
        # return finite values all the way down.
        for k in (SDHO, SE):
            for frac in (1e-6, 1e-5, 1e-4):
                v = integrand_up(k, 0.5, frac * k.tau_slow)
                assert math.isfinite(v)

    def test_vanishes_at_long_lag(self):
        assert abs(integrand_up(SE, 0.5, 60.0)) < 1e-12
        assert abs(integrand_total(SE, 0.5, 60.0)) < 1e-12
        # The zero-level arctan forms share the weak-correlation branch, so
        # they leave no roundoff floor for the tail map to integrate.
        for k in (make_sdho(1.37338, 1.85615, 1.14617), make_ou_mean_revert(1.0, 0.3, 1.0)):
            t = 1e3 * k.tau_slow
            assert crossings._integrand_zero(k, t, total=False) == integrand_up(k, 0.0, t)
            assert crossings._integrand_zero(k, t, total=True) == integrand_total(k, 0.0, t)

    def test_linearized_handover_continuity(self):
        # SE correlation level crosses the 1e-4 switch near t ~ 5.0; the
        # full bracket and the weak-correlation expansion must agree
        # through the switch region.
        from levelcross.crossings import _linearized
        for t in (4.6, 4.8, 5.0, 5.2):
            exact = integrand_up(SE, 0.5, t)
            approx = _linearized(SE, 0.5, SE.eval(t), total=False)
            assert approx == pytest.approx(exact, rel=1e-7)


def _matrix_expansion(r0, q0, u, d, total):
    """The weak-correlation expansion built term by term: 4x4 Neumann series
    for the inverse covariance, a trace series for the log-determinant, and
    bivariate polynomial products of eta through eta^3, integrated against
    one-sided Gaussian moments.  An independent oracle for the closed form."""
    def poly2_mul(a, b):
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return out

    r, p, q = d.r, d.p, d.q
    d_inv = np.diag([1.0 / r0, 1.0 / r0, 1.0 / q0, 1.0 / q0])
    corr = np.array([[0.0, r, 0.0, p], [r, 0.0, -p, 0.0], [0.0, -p, 0.0, q], [p, 0.0, q, 0.0]])
    m = d_inv @ corr
    a1 = m @ d_inv
    a2 = m @ a1
    dq = -a1 + a2 - m @ a2
    log_det_diff = np.trace(m) - 0.5 * np.trace(m @ m) + np.trace(m @ m @ m) / 3.0
    a_vec = np.array([u, u, 0.0, 0.0])
    lin = -(dq @ a_vec)
    eta = np.zeros((3, 3))
    eta[0, 0] = -0.5 * float(a_vec @ dq @ a_vec) - 0.5 * log_det_diff
    eta[1, 0], eta[0, 1] = lin[2], lin[3]
    eta[2, 0], eta[0, 2], eta[1, 1] = -0.5 * dq[2, 2], -0.5 * dq[3, 3], -dq[2, 3]
    eta2 = poly2_mul(eta, eta)
    full = np.zeros((7, 7))
    full[:3, :3] += eta
    full[:5, :5] += 0.5 * eta2
    full += poly2_mul(eta2, eta) / 6.0
    g = [0.5, math.sqrt(q0 / (2.0 * math.pi))]
    for n in range(2, 9):
        g.append((n - 1) * q0 * g[n - 2])
    acc = 0.0
    for i in range(7):
        for j in range(7):
            if not total:
                acc += full[i, j] * g[i + 1] * g[j + 1]
            elif i % 2 == 0 and j % 2 == 0:
                acc += full[i, j] * 4.0 * g[i + 1] * g[j + 1]
    return math.exp(-u * u / r0) / (2.0 * math.pi * r0) * acc


class TestWeakExpansion:
    def test_closed_form_matches_matrix_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r0, q0 = 10.0 ** rng.uniform(-2, 2, 2)
            level = 10.0 ** rng.uniform(-9, -4)
            r, p, q = rng.uniform(-1, 1, 3) * level * np.array([r0, math.sqrt(r0 * q0), q0])
            u = rng.uniform(-3, 3) * math.sqrt(r0)
            kernel = type("Stub", (), {"r0": r0, "q0": q0})()
            d = KernelDerivatives(r, p, q, 1.0, r - r0)
            for total in (False, True):
                assert crossings._linearized(kernel, u, d, total) == pytest.approx(
                    _matrix_expansion(r0, q0, u, d, total), rel=1e-12, abs=0.0
                )


class TestArrayPath:
    """The excess formula on (levels x lags) arrays, as a sweep row takes it,
    equals its float calls bit for bit in every element."""

    @pytest.mark.parametrize("total", [False, True])
    def test_panel_equals_float_calls(self, total):
        kernel = make_sdho(1.0, 0.7, 1.0)
        ts = np.geomspace(1e-6, 60.0, 300).tolist()
        lags = [crossings._lag(kernel, t) for t in ts]
        assert {type(lag) for lag in lags} == {tuple, KernelDerivatives}  # both regimes
        assert ts[0] < 0.1 * kernel.series_scale < ts[-1]  # series lags too
        levels = [-2.0, 0.0, 0.3, 1.7]
        got = crossings._panel(kernel, np.array(levels)[:, None], ts, total).tolist()
        assert got == [[crossings._excess(kernel, u, lag, total) for lag in lags] for u in levels]

    @pytest.mark.parametrize("total", [False, True])
    def test_zero_level_panel_equals_float_calls(self, total):
        # The arctan form over a panel: numpy's own arctan differs from
        # math.atan in the last bit on some of these lags.
        for kernel in STATS_MIX:
            ts = np.geomspace(1e-6, 60.0, 2000) * kernel.tau_slow
            got = crossings._panel(kernel, np.zeros((1, 1)), ts, total, crossings._zero_excess)
            assert got.tolist() == [[crossings._integrand_zero(kernel, t, total) for t in ts.tolist()]]


class _Overshoot(SquaredExponentialKernel):
    """r is 1.5 times the squared exponential's beyond t = 0.15, so
    r0^2 - r^2 < 0 on (0.15, 0.9): lags that abg_params rejects, where the
    validity gate (which checks the lags below 0.1) still passes."""

    def _rpq(self, t, *xp):
        r, p, q, rm = super()._rpq(t, *xp)
        return r * (1.0 + 0.5 * (t > 0.15)), p, q, rm + 0.5 * r * (t > 0.15)


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestArrayPathErrors:
    """A panel or row holding a lag that _lag rejects raises what _lag raises
    at the first such lag in node order."""

    @pytest.mark.parametrize("ts", [[2.0, 0.3, 0.2, 0.5], [0.0, 1e-3, 0.5], [1e-3, 2e-3, 0.0]])
    def test_panel_raises_first_lag_error(self, ts):
        kernel = _Overshoot(1.0, 1.0)
        first = next(t for t in ts if t <= 0.0 or 0.15 < t < 0.9)
        expected = _raised(lambda: crossings._lag(kernel, first))
        assert expected[0] is crossings.DegenerateLagError
        for total in (False, True):
            assert _raised(lambda: crossings._panel(kernel, np.array([[0.0], [1.0]]), ts, total)) == expected

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_long_time_statistics_never_take_the_float_path(self, mode, monkeypatch):
        # A long-time row raises what its failing round raises, with no
        # float-path fallback, and computes without one.
        def never(*args):
            raise AssertionError("the float path was taken")

        monkeypatch.setattr(crossings, "_float_stats", never)
        kernel = _Overshoot(1.0, 1.0)
        for call in (lambda: variance_rate_asymptotic(kernel, 0.5, mode),
                     lambda: variance_rate_asymptotic(kernel, [0.5, 1.0], mode),
                     lambda: fano(kernel, 0.5, mode),
                     lambda: zero_level_stats(kernel, None, mode)):
            with pytest.raises(crossings.DegenerateLagError):
                call()
        assert variance_rate_asymptotic(SDHO, [0.0, 0.5], mode)[1].quad_converged
        assert zero_level_stats(SDHO, None, mode).quad_converged

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_row_raises_single_level_error(self, mode):
        kernel = _Overshoot(1.0, 1.0)
        expected = _raised(lambda: variance_rate_asymptotic(kernel, 0.5, mode))
        assert expected[0] is crossings.DegenerateLagError
        assert _raised(lambda: variance_rate_asymptotic(kernel, [0.5, 1.0, 0.0], mode)) == expected


class TestPerKernelWork:
    def test_gate_runs_once_per_kernel(self, monkeypatch):
        calls = []
        original = crossings.check_validity
        monkeypatch.setattr(crossings, "check_validity", lambda k: calls.append(k) or original(k))
        kernel = make_sdho(1.0, 0.7, 1.0)
        variance_rate_asymptotic(kernel, 0.5, "up")
        variance_count(kernel, 0.5, 5.0, "total")
        fano(kernel, 1.0, "up")
        zero_level_stats(kernel, None, "up")
        assert calls == [kernel]
        assert kernel._gate_cache == ()  # a passing gate caches no warnings

    def test_failing_gate_raises_on_every_call(self, monkeypatch):
        calls = []

        def failing(kernel):
            calls.append(kernel)
            return ValidityReport(checks={"positive_moments": (True, {}),
                                          "series_matches": (False, {})})

        monkeypatch.setattr(crossings, "check_validity", failing)
        kernel = make_sdho(1.0, 0.7, 1.0)
        for _ in range(3):
            with pytest.raises(crossings.ValidityError, match="series_matches"):
                variance_rate_asymptotic(kernel, 0.5, "up")
        assert calls == [kernel]

    def test_direct_lag_evaluates_kernel_once(self, monkeypatch):
        kernel = make_sdho(1.0, 0.7, 1.0)
        expected = integrand_up(kernel, 0.5, 2.0)
        calls = []
        original = type(kernel).eval
        monkeypatch.setattr(type(kernel), "eval",
                            lambda self, t: calls.append(t) or original(self, t))
        assert integrand_up(kernel, 0.5, 2.0) == expected
        assert calls == [2.0]


class TestLevelRow:
    """variance_rate_asymptotic on a sequence of levels: one call per row;
    a scalar level is a row of one."""

    LEVELS = (0.0, 0.5, -0.75, 0.5)  # a repeated and a negative level

    @pytest.mark.parametrize("kernel", STATS_MIX, ids=repr)
    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_row_equals_single_level_calls(self, kernel, mode):
        # Rows and scalar calls alike equal the float path, level by level.
        expected = [repr(crossings._float_stats(kernel, u, CrossingMode(mode), None, None))
                    for u in self.LEVELS]
        row = variance_rate_asymptotic(kernel, list(self.LEVELS), mode)
        assert isinstance(row, tuple)
        assert [repr(st) for st in row] == expected
        assert [repr(variance_rate_asymptotic(kernel, u, mode)) for u in self.LEVELS] == expected
        assert repr(variance_rate_asymptotic(kernel, [0.5], mode)) == repr((row[1],))

    def test_one_level_takes_the_row_path(self, monkeypatch):
        calls = []
        original = crossings._panel
        monkeypatch.setattr(crossings, "_panel", lambda *args: calls.append(args[1]) or original(*args))
        monkeypatch.setattr(crossings, "_float_stats", None)  # the float path is never taken
        (row,) = variance_rate_asymptotic(SDHO, [0.5], "up")
        n_row = len(calls)
        scalar = variance_rate_asymptotic(SDHO, 0.5, "up")
        assert n_row and len(calls) == 2 * n_row
        assert all(levels.tolist() == [[0.5]] for levels in calls)
        monkeypatch.undo()
        float_path = crossings._float_stats(SDHO, 0.5, CrossingMode.UP, None, None)
        assert repr(row) == repr(scalar) == repr(float_path)

    def test_row_evaluates_kernel_once_per_lag(self, monkeypatch):
        # The row evaluates its lags through eval_array, a panel at a time.
        kernel = make_sdho(1.0, 0.7, 1.0)
        crossings._gate(kernel)
        calls = []
        original = type(kernel).eval_array
        monkeypatch.setattr(type(kernel), "eval_array",
                            lambda self, t: calls.extend(t.tolist()) or original(self, t))
        variance_rate_asymptotic(kernel, [0.25 * k for k in range(9)], "up")
        assert calls and len(calls) == len(set(calls))

    def test_row_leaves_no_state_on_kernel(self):
        kernel = make_sdho(1.0, 0.7, 1.0)
        variance_rate_asymptotic(kernel, 0.5, "up")  # fills the per-kernel caches
        before = dict(vars(kernel))
        variance_rate_asymptotic(kernel, [0.25 * k for k in range(9)], "up")
        assert vars(kernel).keys() == before.keys()
        assert all(vars(kernel)[key] is value for key, value in before.items())


class TestRowDriver:
    """A row's levels are integrated in lockstep: a few _panel calls per row,
    and what a failing lag raises is the single-level call's error."""

    LEVELS = [0.25 * k for k in range(9)]

    @pytest.mark.parametrize("kernel", [make_sdho(1.0, 0.7, 1.0), make_ou_mean_revert(1.0, 0.3, 1.0)],
                             ids=repr)
    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_row_makes_few_panel_calls(self, kernel, mode, monkeypatch):
        calls = []
        original = crossings._panel
        monkeypatch.setattr(crossings, "_panel", lambda *args: calls.append(args[2]) or original(*args))
        row = variance_rate_asymptotic(kernel, self.LEVELS, mode)
        assert 1 <= len(calls) <= 5
        assert [st.quad_converged for st in row] == [True] * len(self.LEVELS)

    def test_programming_error_in_row_path_raises(self, monkeypatch):
        # Only what a lag, the gate or the integrator raises sends a row to
        # the single-level calls, so a fault in the row path shows.
        def broken(*args):
            raise TypeError("injected")

        monkeypatch.setattr(crossings, "_panel", broken)
        for u in (self.LEVELS, 0.5):
            with pytest.raises(TypeError, match="injected"):
                variance_rate_asymptotic(make_sdho(1.0, 0.7, 1.0), u)

    def _nan_at(self, monkeypatch, kernel, level, t_bad):
        """The excess at (level, t_bad) is NaN, on the float path (the
        fallback, ``_float_stats``) and the array path."""
        up, panel = crossings.integrand_up, crossings._panel

        def integrand(k, u, t):
            return math.nan if (u, t) == (level, t_bad) else up(k, u, t)

        def array_panel(k, levels, ts, *form):
            values = panel(k, levels, ts, *form)
            values[np.ix_(levels[:, 0] == level, np.asarray(ts) == t_bad)] = math.nan
            return values

        monkeypatch.setattr(crossings, "integrand_up", integrand)
        monkeypatch.setattr(crossings, "_panel", array_panel)

    def _lags_of(self, monkeypatch, kernel, level) -> list:
        """The lags that the float path (``_float_stats``) asks for at one level."""
        seen = []
        up = crossings.integrand_up
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "integrand_up", lambda k, u, t: seen.append(t) or up(k, u, t))
            crossings._float_stats(kernel, level, CrossingMode.UP, None, None)
        return seen

    def test_nan_raises_first_failing_levels_error(self, monkeypatch):
        kernel = make_sdho(1.0, 0.7, 1.0)
        t_bad = self._lags_of(monkeypatch, kernel, 1.0)[20]
        self._nan_at(monkeypatch, kernel, 1.0, t_bad)
        with pytest.raises(IntegrationError) as single:
            variance_rate_asymptotic(kernel, 1.0)
        with pytest.raises(IntegrationError):  # the row driver itself
            crossings._row(kernel, [0.5, 1.0, 0.0], CrossingMode.UP, None)
        with pytest.raises(IntegrationError) as row:
            variance_rate_asymptotic(kernel, [0.5, 1.0, 0.0])
        assert (str(row.value), row.value.abscissa) == (str(single.value), single.value.abscissa)
        assert single.value.abscissa is not None

    @pytest.mark.parametrize("fault", ["nan", "degenerate"])
    def test_failing_lag_no_level_asks_for_keeps_the_row(self, fault, monkeypatch):
        # A round-0 stub panel that no level's mesh reaches: the lockstep
        # driver fails there, drops the prefetch, and keeps the row.
        kernel = make_ou_mean_revert(1.0, 0.3, 1.0)
        expected = [variance_rate_asymptotic(kernel, u) for u in self.LEVELS]
        asked = set()
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_ROUND0_STUB", 0)
            for u in self.LEVELS:
                asked.update(self._lags_of(patch, kernel, u))
        evaluated = []
        panel = crossings._panel
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "_panel", lambda k, lv, ts, *form: evaluated.extend(ts.tolist())
                          or panel(k, lv, ts, *form))
            variance_rate_asymptotic(kernel, self.LEVELS)
        spare = [t for t in evaluated if t not in asked]
        assert spare  # round 0 evaluates more than the levels ask for
        if fault == "nan":
            self._nan_at(monkeypatch, kernel, self.LEVELS[0], spare[0])
        else:  # _lags' own check rejects the spare lag, read as t = 0
            lags = crossings._lags
            monkeypatch.setattr(crossings, "_lags",
                                lambda k, ts: lags(k, np.where(ts == spare[0], 0.0, ts)))
        faults, faulty = [], crossings._panel

        def watched(*args):
            try:
                values = faulty(*args)
            except crossings.DegenerateLagError:
                faults.append(True)
                raise
            faults.append(bool(np.isnan(values).any()))
            return values

        monkeypatch.setattr(crossings, "_panel", watched)
        assert crossings._row(kernel, self.LEVELS, CrossingMode.UP, None) == tuple(expected)
        assert faults[0] and not any(faults[1:])  # only round 0's prefetch held the fault
        assert variance_rate_asymptotic(kernel, self.LEVELS) == tuple(expected)


class TestPlainTypes:
    """Every entry point returns plain Python floats and bools, on every path
    (the short-lag series evaluates numpy polynomials)."""

    @pytest.mark.parametrize("kernel", [make_sdho(1.0, 0.7, 1.0), make_ou_mean_revert(1.0, 0.3, 1.0),
                                        make_rational_quadratic(1.0, 1.0, 2.0),
                                        make_squared_exponential(1.0, 1.0)], ids=repr)
    def test_fields_are_float_and_bool(self, kernel):
        stats = [variance_count(kernel, 0.5, 3.0 * kernel.tau_slow, "total"),
                 variance_rate_asymptotic(kernel, 0.5, "up"),
                 *variance_rate_asymptotic(kernel, [0.0, 0.5, 1.5], "total"),
                 zero_level_stats(kernel, None, "up")]
        for st in stats:
            assert [type(v) for v in (st.mean, st.variance, st.quad_error, st.quad_converged)] == [
                float, float, float, bool]
            assert st.fano is None or type(st.fano) is float
        assert type(fano(kernel, 0.5)) is float


class TestShortLagSeries:
    # Squared-exponential kernels on which the rounding residue of the
    # cancelled t^4 coefficient of D_beta once beat the true t^6 term at the
    # first quadrature node: indices into 61 log-spaced tau on [0.5, 2].
    _RESIDUE_CASES = {0.5: (10, 21, 24, 40, 51, 54), 1.0: (10, 21, 24, 40, 51, 54),
                      1.8265: (0, 12, 27, 30, 42, 59, 60)}

    def test_cancelled_coefficients_give_finite_statistics(self):
        taus = np.geomspace(0.5, 2.0, 61)
        for sigma, indices in self._RESIDUE_CASES.items():
            for i in indices:
                st = variance_rate_asymptotic(make_squared_exponential(sigma, taus[i]), 0.5 * sigma)
                assert math.isfinite(st.fano) and st.quad_converged

    @given(
        family=st.sampled_from(["se", "rq"]),
        sigma=st.floats(0.1, 10.0),
        tau=st.floats(0.1, 10.0),
        alpha_shape=st.floats(0.5, 5.0),
        log_frac=st.floats(-9.0, -1.5),
    )
    def test_series_denominators_keep_their_sign(self, family, sigma, tau, alpha_shape, log_frac):
        if family == "se":
            kernel = make_squared_exponential(sigma, tau)
        else:
            kernel = make_rational_quadratic(sigma, tau, alpha_shape)
        t = 10.0**log_frac * tau
        assert t < 0.1 * kernel.series_scale  # the series path
        prm = abg_params(kernel, 0.5 * sigma, t)
        d_beta = crossings._horner(crossings._abg_polys(kernel)[3], t)
        assert d_beta < 0.0 and prm.beta > 0.0


class TestVariance:
    def test_tiny_horizon_is_poisson_like(self):
        # As T -> 0 at most one crossing fits, so variance -> mean.
        st = variance_count(SDHO, 0.5, 1e-6, "up")
        assert st.variance == pytest.approx(st.mean, rel=1e-5)

    def test_asymptotic_rate_positive_and_converged(self):
        # Every family converges at default settings, power-law tails too.
        for kernel in (SDHO, make_ou_mean_revert(1.0, 0.5, 1.0), SE,
                       make_rational_quadratic(1.0, 1.0, 0.75), make_rational_quadratic(1.0, 1.0, 2.0)):
            st = variance_rate_asymptotic(kernel, 0.5, "up")
            assert st.variance > 0
            assert st.quad_converged, kernel.params

    def test_total_variance_not_twice_up(self):
        # Up and down crossings are correlated: the total-count variance
        # rate differs from twice the upcrossing variance rate.
        up = variance_rate_asymptotic(SDHO, 0.5, "up").variance
        tot = variance_rate_asymptotic(SDHO, 0.5, "total").variance
        assert abs(tot - 2.0 * up) > 1e-3 * tot

    def test_finite_horizon_approaches_asymptotic(self):
        asym = variance_rate_asymptotic(SDHO, 0.5, "up").variance
        v200 = variance_count(SDHO, 0.5, 200.0, "up").variance / 200.0
        assert v200 == pytest.approx(asym, rel=0.01)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            variance_count(SDHO, 0.5, 0.0)
        with pytest.raises(ValueError):
            mean_count(SDHO, 0.5, -1.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_nonfinite_horizon(self, horizon):
        for call in (lambda: variance_count(SDHO, 0.5, horizon),
                     lambda: zero_level_stats(SDHO, horizon)):
            with pytest.raises(ValueError, match=r"^horizon must be finite and > 0"):
                call()

    def test_rejects_nan_level(self):
        for call in (lambda: mean_rate(SDHO, math.nan),
                     lambda: variance_rate_asymptotic(SDHO, math.nan),
                     lambda: variance_rate_asymptotic(SDHO, [0.5, math.nan])):
            with pytest.raises(ValueError, match="^level u must not be NaN$"):
                call()


class TestAssemble:
    """mean + 2 int I below 0: within 10x the quadrature error it is clamped
    to 0 with a warning, beyond that it raises."""

    @staticmethod
    def _assemble(excess: float, error: float):
        mean = mean_rate(SDHO, 0.5)
        result = QuadratureResult(-0.5 * mean + excess, error, 15, True)
        return crossings._assemble(SDHO, 0.5, CrossingMode.UP, None, lambda: result)

    def test_slightly_negative_variance_clamps_to_zero(self):
        st = self._assemble(-1e-12, 1e-12)
        assert (st.variance, st.fano, st.quad_error) == (0.0, 0.0, 2e-12)
        assert [w for w in st.warnings if "clamped to 0" in w]

    def test_far_negative_variance_raises(self):
        with pytest.raises(NegativeVarianceError, match="beyond 10x quadrature error"):
            self._assemble(-1e-6, 1e-12)


class TestFarLevel:
    """A level so far out that the mean rate underflows to 0 has variance 0,
    quad_error 0 and no Fano factor, on every path, without integrating."""

    KERNEL = make_sdho(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("u", [40.0, 1e54, 1e300])
    def test_single_level_and_window(self, u):
        for stats in (variance_rate_asymptotic(self.KERNEL, u, "up"),
                      variance_count(self.KERNEL, -u, 5.0, "total")):
            assert (stats.mean, stats.variance, stats.quad_error, stats.quad_converged,
                    stats.fano, stats.evaluations) == (0.0, 0.0, 0.0, True, None, 0)
        assert fano(self.KERNEL, u) is None

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_sweep_row(self, mode):
        levels = [0.5, 1e300, 40.0, 1.5]
        row = variance_rate_asymptotic(self.KERNEL, levels, mode)
        assert [repr(st) for st in row] == [
            repr(variance_rate_asymptotic(self.KERNEL, u, mode)) for u in levels]
        assert [st.evaluations == 0 for st in row] == [False, True, True, False]


class TestFano:
    def test_underdamped_sub_poissonian(self):
        k = make_sdho(1.0, 0.5, 1.0)
        assert fano(k, 0.0) < 1.0
        assert fano(k, 1.0) < 1.0

    def test_overdamped_super_poissonian(self):
        k = make_sdho(1.0, 2.5, 1.0)
        assert fano(k, 0.0) > 1.0
        assert fano(k, 1.0) > 1.0

    def test_u_sign_symmetry(self):
        for u in (0.4, 1.3):
            assert fano(SDHO, u) == pytest.approx(fano(SDHO, -u), abs=1e-12)

    def test_poisson_limit_ordering(self):
        # Crossings of ever-higher levels thin toward a Poisson process.
        devs = [abs(fano(SE, u) - 1.0) for u in (3.0, 4.0, 6.0)]
        assert devs[2] < devs[1] < devs[0]

    def test_consistent_with_variance_rate(self):
        st = variance_rate_asymptotic(SE, 0.7, "up")
        assert fano(SE, 0.7, "up") == pytest.approx(st.variance / st.mean, rel=1e-10)

    def test_sequence_gives_one_factor_per_level(self, monkeypatch):
        # One row per call, and the scalar calls' values, None for a far level.
        k = make_sdho(1.0, 0.5, 1.0)
        levels = [0.5, 1.0, 1e300]
        expected = tuple(fano(k, u) for u in levels)
        assert expected[-1] is None
        rows = []
        original = crossings._row
        monkeypatch.setattr(crossings, "_row", lambda kernel, u, *args: rows.append(list(u))
                            or original(kernel, u, *args))
        assert fano(k, levels, "up") == expected
        assert dimensionless_fano(k, levels) == expected  # k is the unit member of its family
        assert rows == [levels, levels]
        monkeypatch.undo()
        assert dimensionless_fano(k, levels) == tuple(dimensionless_fano(k, psi) for psi in levels)


class TestPowerLawTails:
    """rq's tail r ~ t^-2 alpha: the long-time excess decays like r at u != 0
    and like r^2 at u = 0, so its integral diverges for 2 alpha <= 1 at
    u != 0 and for 4 alpha <= 1 at u = 0."""

    @pytest.mark.parametrize("alpha, u", [(0.3, 0.5), (1e-12, 0.0), (0.5, 0.5), (0.2, 0.0),
                                          (0.5, -1e-300)])
    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_divergent_long_time_statistics_raise(self, alpha, u, mode):
        # These gave numbers, some "converged" (alpha 0.3 at u 0.5 read F 5.9e5).
        kernel = make_rational_quadratic(1.0, 1.0, alpha)
        message = rf"alpha_shape={alpha:g}\).* at u={u!r} diverges .* k = {2.0 * alpha!r} "
        calls = [lambda: variance_rate_asymptotic(kernel, u, mode),
                 lambda: fano(kernel, [u, 1.0], mode)]
        if u == 0.0:
            calls.append(lambda: zero_level_stats(kernel, None, mode))
        for call in calls:
            with pytest.raises(crossings.ValidityError, match=message):
                call()
        # A window integrates a finite range (at alpha 1e-12 its direct lags
        # lose D_beta's sign, as before).
        if alpha > 1e-12:
            assert variance_count(kernel, u, 10.0, mode).quad_converged

    def test_only_divergent_levels_are_refused(self):
        # At 2 alpha = 0.8 the u = 0 integral converges and every other diverges.
        kernel = make_rational_quadratic(1.0, 1.0, 0.4)
        assert variance_rate_asymptotic(kernel, 0.0).quad_converged
        assert variance_rate_asymptotic(kernel, 1e300).variance == 0.0  # no crossings, no integral
        with pytest.raises(crossings.ValidityError, match="at u=0.5 diverges"):
            variance_rate_asymptotic(kernel, [0.0, 0.5])

    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_convergent_statistics_carry_no_warnings(self, alpha):
        kernel = make_rational_quadratic(1.0, 1.0, alpha)
        for mode in ("up", "total"):
            stats = [*variance_rate_asymptotic(kernel, [0.0, 0.5, 1.5], mode),
                     variance_count(kernel, 0.5, 20.0, mode), zero_level_stats(kernel, None, mode),
                     zero_level_stats(kernel, 20.0, mode)]
            assert [st.warnings for st in stats] == [()] * len(stats)
            assert all(st.quad_converged for st in stats)


def _tail_reference():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "tail_reference.json")) as fh:
        return json.load(fh)["cases"]


class TestLinearTail:
    """Past t_s = 32 tau_slow a long-time level integrates I - Lin, and
    int_{t_s}^inf Lin joins in closed form."""

    @pytest.mark.parametrize("case", _tail_reference(), ids=lambda case: case["case"])
    def test_power_law_rates_match_reference(self, case):
        # tests/data/make_tail_reference.py: QUADPACK to 1e7 tau, then the tail.
        _, alpha, u, mode = case["case"].split()
        kernel = make_rational_quadratic(1.0, 1.0, float(alpha.split("=")[1]))
        st = variance_rate_asymptotic(kernel, float(u.split("=")[1]), mode)
        ref = case["values"]
        assert st.quad_converged and st.mean == ref["mean"]
        assert abs(st.variance - ref["variance"]) <= st.quad_error + ref["error"]
        if alpha == "alpha=0.55":  # the slowest tail here, t^-1.1: 1e-9 relative too
            assert abs(st.variance - ref["variance"]) <= 1e-9 * ref["variance"]

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_power_law_row_takes_few_panel_calls(self, mode, monkeypatch):
        # 54 calls up and 49 total if the tail map meets the t^-1.5 tail.
        kernel = make_rational_quadratic(1.0, 1.0, 0.75)
        calls = []
        original = crossings._panel
        monkeypatch.setattr(crossings, "_panel", lambda *args: calls.append(args) or original(*args))
        row = variance_rate_asymptotic(kernel, [0.25 * k for k in range(9)], mode)
        assert 1 <= len(calls) <= 10
        assert all(st.quad_converged for st in row)

    @pytest.mark.parametrize("kernel", [k for k in STATS_MIX if k.family != "rational_quadratic"],
                             ids=repr)
    def test_exponential_tails_move_by_rounding(self, kernel, monkeypatch):
        # Without Lin (no subtraction, no closed form) a level integrates I
        # to the end, as before; e^-32 leaves the difference at rounding.
        levels = [0.0, 0.5, 1.5]
        for mode in ("up", "total"):
            got = variance_rate_asymptotic(kernel, levels, mode)
            with monkeypatch.context() as patch:
                patch.setattr(crossings, "_linear_terms",
                              lambda k, lv, total: ([0.0] * lv.size, [0.0] * lv.size))
                plain = variance_rate_asymptotic(kernel, levels, mode)
            for a, b in zip(got, plain):
                assert abs(a.variance - b.variance) <= 1e-12 * b.variance

    def test_linear_term_is_the_expansions_first_order(self):
        # Lin is _linearized's part linear in (r, p, q): scaling every
        # correlation by eps scales it by eps, and the rest is second order.
        kernel = make_sdho(1.3, 0.7, 0.9)
        d = kernel.eval(kernel.tau_slow)  # correlations of order 0.1
        for total in (False, True):
            for u in (0.0, 0.4, -1.1):
                lin = crossings._linear(kernel, np.array([[u]]), total, d.r, d.q)[0, 0]
                for eps in (1e-5, 1e-6):
                    small = KernelDerivatives(eps * d.r, eps * d.p, eps * d.q, d.t, math.nan)
                    full = crossings._linearized(kernel, u, small, total)
                    assert abs(full - eps * lin) <= 10.0 * eps * eps * kernel.q0 / kernel.r0


class TestBiExponentialDifference:
    """r - r0 of the two-rate form without cancellation: D_alpha and D_beta
    at direct lags keep their digits as the rates part."""

    @staticmethod
    def _reference(kernel, t):
        """(D_alpha, D_beta) at 60 digits from the kernel's own float rates."""
        with mp.workdps(60):
            amp, slow, gap = (mp.mpf(x) for x in kernel._rates)
            fast, t = slow + gap, mp.mpf(t)
            e_slow, e_fast = mp.exp(-slow * t), mp.exp(-fast * t)
            r = amp * (fast * e_slow - slow * e_fast) / gap
            p = amp * slow * fast * (e_fast - e_slow) / gap
            q = amp * slow * fast * (fast * e_fast - slow * e_slow) / gap
            r0, q0 = mp.mpf(kernel.r0), mp.mpf(kernel.q0)
            return p * p + (q - q0) * (r + r0), p * p + (q + q0) * (r - r0)

    @pytest.mark.parametrize("kernel", [
        *(make_sdho(1.0, zeta, 1.0) for zeta in (25.0, 1e3, 1e5, 1e6, 1e7)),
        *(make_ou_mean_revert(1.0, kappa, 1.0) for kappa in (1e-4, 1e-2, 1e2)),
    ], ids=repr)
    def test_denominators_against_mpmath(self, kernel):
        # Measured worst: 1.4e-15 in D_alpha and 3.4e-13 in D_beta, whose
        # two terms cancel at leading order.  With r - r0 formed as a
        # difference D_beta is 3.8e-2 off at zeta = 1e5 and loses its sign
        # from zeta = 1e6.
        ts = np.geomspace(0.1, 10.0, 9) * kernel.series_scale
        groups, _ = crossings._lags(kernel, ts)
        [(cols, (alpha, beta, _, _, rr_diff, _, rp))] = groups
        d_alpha, d_beta = -rp / (2.0 * alpha), -rr_diff / rp / (2.0 * beta)
        for t, got in zip(ts.tolist(), zip(d_alpha.tolist(), d_beta.tolist())):
            for value, want in zip(got, self._reference(kernel, t)):
                assert abs(value - want) <= 1e-12 * abs(want), t

    def test_large_damping_converges(self):
        # F/zeta settles at 0.53593 from zeta = 1e3 on; with r - r0 formed as
        # a difference, zeta = 1e6 and 1e7 raised DegenerateLagError.
        rates = [fano(make_sdho(1.0, zeta, 1.0), 0.5) / zeta for zeta in (1e5, 1e6, 1e7)]
        assert rates[1:] == pytest.approx([rates[0]] * 2, rel=1e-5)
        assert rates[0] == pytest.approx(0.53593, abs=1e-5)

    def test_tiny_power_law_shape_window_converges(self):
        # At alpha_shape = 1e-12, 1 - r/r0 is 1.4e-14 just above the switch
        # lag; formed as a difference it lost D_beta's sign at t = 1.65e-7.
        st = variance_count(make_rational_quadratic(1.0, 1.0, 1e-12), 0.0, 10.0)
        assert st.quad_converged and st.variance > 0.0


def _float_zero(kernel, mode, T=None):
    """The zero-level statistics on the float path, long-time or over T."""
    return crossings._float_stats(kernel, 0.0, CrossingMode(mode), T, None, crossings._zero_excess)


class TestZeroLevel:
    def test_matches_general_path(self):
        kernels = [make_sdho(1.0, 0.5, 1.0), SDHO, make_sdho(1.0, 2.5, 1.0),
                   make_sdho(1.37338, 1.85615, 1.14617), make_ou_mean_revert(1.0, 0.5, 1.0),
                   make_rational_quadratic(1.0, 1.0, 2.0), SE]
        for k in kernels:
            for mode in ("up", "total"):
                z = zero_level_stats(k, None, mode)
                g = variance_rate_asymptotic(k, 0.0, mode)
                assert z.mean == pytest.approx(g.mean, rel=1e-12)
                assert z.variance == pytest.approx(g.variance, rel=1e-10)
                assert z.fano == pytest.approx(g.fano, rel=1e-10)

    def test_finite_horizon_variant(self):
        for kernel, mode, m in itertools.product(STATS_MIX, ("up", "total"), (3.0, 30.0, 100.0)):
            z = zero_level_stats(kernel, m * kernel.tau_slow, mode)
            g = variance_count(kernel, 0.0, m * kernel.tau_slow, mode)
            assert z.variance == pytest.approx(g.variance, rel=1e-10)

    # A long-time zero-level statistic is a row of one on the lockstep driver,
    # with the float path's value, error bar, evaluation count and exceptions.

    @pytest.mark.parametrize("kernel", STATS_MIX, ids=repr)
    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_row_of_one_equals_float_path(self, kernel, mode, monkeypatch):
        def never(*args):
            raise AssertionError("the float path was taken")

        calls = []
        original = crossings._panel
        monkeypatch.setattr(crossings, "_panel", lambda *args: calls.append(args) or original(*args))
        monkeypatch.setattr(crossings, "_float_stats", never)
        monkeypatch.setattr(crossings, "_integrand_zero", never)
        st = zero_level_stats(kernel, None, mode)
        assert 1 <= len(calls) <= 5
        assert all(args[1].tolist() == [[0.0]] and args[4] is crossings._zero_excess for args in calls)
        monkeypatch.undo()
        assert repr(st) == repr(_float_zero(kernel, mode))

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_failing_lag_the_level_never_asks_for_keeps_the_result(self, mode, monkeypatch):
        # A round-0 stub lag that the level never asks for: the row's first
        # round fails there, drops the prefetch, and keeps the statistic.
        kernel = make_ou_mean_revert(1.0, 0.3, 1.0)
        expected = repr(_float_zero(kernel, mode))
        asked, evaluated = [], []
        zero, panel = crossings._integrand_zero, crossings._panel
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "_integrand_zero",
                          lambda k, t, total: asked.append(t) or zero(k, t, total))
            patch.setattr(quadrature, "_ROUND0_STUB", 0)
            _float_zero(kernel, mode)
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "_panel", lambda k, lv, ts, *form: evaluated.extend(ts.tolist())
                          or panel(k, lv, ts, *form))
            zero_level_stats(kernel, None, mode)
        spare = [t for t in evaluated if t not in set(asked)]
        assert spare  # round 0 evaluates more than the level asks for

        hits = []

        def array_panel(k, levels, ts, *form):
            values = panel(k, levels, ts, *form)
            values[:, np.asarray(ts) == spare[0]] = math.nan
            hits.append(math.isnan(values.sum()))
            return values

        monkeypatch.setattr(crossings, "_panel", array_panel)
        assert repr(crossings._row(kernel, (0.0,), CrossingMode(mode), None,
                                   crossings._zero_excess)[0]) == expected
        assert hits[0] and not any(hits[1:])  # only round 0's prefetch held the NaN
        assert repr(zero_level_stats(kernel, None, mode)) == expected

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_degenerate_lag_raises_float_path_error(self, mode):
        kernel = _Overshoot(1.0, 1.0)
        expected = _raised(lambda: _float_zero(kernel, mode))
        assert expected[0] is crossings.DegenerateLagError
        assert expected[1].startswith("r0^2 - r^2 = -1.1288")
        assert _raised(lambda: zero_level_stats(kernel, None, mode)) == expected


class TestZeroLevelWindows:
    """A windowed zero-level statistic is a row of one on the lockstep
    driver's finite range, weighted by 1 - t/T, with the float path's value,
    error bar, evaluation count and exceptions."""

    @pytest.mark.parametrize("kernel", STATS_MIX, ids=repr)
    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_row_of_one_equals_float_path(self, kernel, mode, monkeypatch):
        def never(*args):
            raise AssertionError("the float path was taken")

        calls = []
        original = crossings._panel
        monkeypatch.setattr(crossings, "_panel", lambda *args: calls.append(args) or original(*args))
        monkeypatch.setattr(crossings, "_float_stats", never)
        monkeypatch.setattr(crossings, "_integrand_zero", never)
        horizons = [m * kernel.tau_slow for m in (0.01, 3.0, 100.0)]
        stats = [zero_level_stats(kernel, T, mode) for T in horizons]
        assert calls and all(args[1].tolist() == [[0.0]] and args[4] is crossings._zero_excess
                              for args in calls)
        monkeypatch.undo()
        assert [repr(st) for st in stats] == [repr(_float_zero(kernel, mode, T)) for T in horizons]

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_failing_lag_the_level_never_asks_for_keeps_the_result(self, mode, monkeypatch):
        # A round-0 stub lag that the level never asks for: the row's first
        # round fails there, drops the prefetch, and keeps the statistic.
        kernel = make_ou_mean_revert(1.0, 0.3, 1.0)
        T = 3.0 * kernel.tau_slow
        expected = repr(_float_zero(kernel, mode, T))
        asked, evaluated = [], []
        zero, panel = crossings._integrand_zero, crossings._panel
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "_integrand_zero",
                          lambda k, t, total: asked.append(t) or zero(k, t, total))
            _float_zero(kernel, mode, T)
        with monkeypatch.context() as patch:
            patch.setattr(crossings, "_panel", lambda k, lv, ts, *form: evaluated.extend(ts.tolist())
                          or panel(k, lv, ts, *form))
            zero_level_stats(kernel, T, mode)
        spare = [t for t in evaluated if t not in set(asked)]
        assert spare  # round 0 evaluates more than the level asks for

        hits = []

        def array_panel(k, levels, ts, *form):
            values = panel(k, levels, ts, *form)
            values[:, np.asarray(ts) == spare[0]] = math.nan
            hits.append(math.isnan(values.sum()))
            return values

        monkeypatch.setattr(crossings, "_panel", array_panel)
        assert repr(crossings._row(kernel, (0.0,), CrossingMode(mode), None,
                                   crossings._zero_excess, T)[0]) == expected
        assert hits[0] and not any(hits[1:])  # only round 0's prefetch held the NaN
        assert repr(zero_level_stats(kernel, T, mode)) == expected

    @pytest.mark.parametrize("mode", ["up", "total"])
    def test_degenerate_lag_raises_float_path_error(self, mode):
        kernel = _Overshoot(1.0, 1.0)
        expected = _raised(lambda: _float_zero(kernel, mode, 3.0))
        assert expected[0] is crossings.DegenerateLagError
        assert expected[1].startswith("r0^2 - r^2 = -1.")
        assert _raised(lambda: zero_level_stats(kernel, 3.0, mode)) == expected

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_bad_horizon_raises_float_path_error(self, T):
        expected = _raised(lambda: _float_zero(SDHO, "up", T))
        assert expected[0] is ValueError
        assert _raised(lambda: zero_level_stats(SDHO, T, "up")) == expected


class TestDimensionless:
    def test_timescale_invariance(self):
        ref = dimensionless_fano("squared_exponential", 0.8)
        for tau in (0.25, 5.0):
            k = make_squared_exponential(1.0, tau)
            assert fano(k, 0.8) == pytest.approx(ref, abs=1e-10)

    def test_amplitude_scaling_via_psi(self):
        # Scaling (u, sigma) jointly leaves the Fano factor unchanged.
        psi = 1.2
        for sigma in (0.5, 1.0, 3.0):
            k = make_squared_exponential(sigma, 1.0)
            assert fano(k, psi * sigma) == pytest.approx(
                dimensionless_fano("squared_exponential", psi), abs=1e-10
            )

    @pytest.mark.parametrize("family, key", [
        ("sdho", "zeta"), ("ou_mean_revert", "kappa"), ("rational_quadratic", "alpha_shape"),
    ])
    def test_missing_shape_names_parameter(self, family, key):
        with pytest.raises(ValueError, match=repr(key)):
            dimensionless_fano(family, 0.5)

    def test_accepts_kernel_instance(self):
        k = make_sdho(1.0, 0.5, 1.0)
        a = dimensionless_fano(k, 0.5)
        b = fano(make_sdho(2.0, 0.5, 3.0), 0.5 * math.sqrt(3.0 / 4.0))
        assert a == pytest.approx(b, abs=1e-9)
