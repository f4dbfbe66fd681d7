"""Tests for the covariance-kernel families.

Derivative oracle: high-order central finite differences of r(t), computed
before comparing against the closed-form p and q returned by eval().
"""

import math

import mpmath as mp
import numpy as np
import pytest

from levelcross.kernels import (
    KernelError,
    check_validity,
    make_ou_mean_revert,
    make_rational_quadratic,
    make_sdho,
    make_squared_exponential,
    map_ou_to_sdho,
)


def fd_derivatives(kernel, t, h=1e-4):
    """(r', r'') by 5-point central differences on r alone."""
    r = [kernel.eval(t + k * h).r for k in (-2, -1, 0, 1, 2)]
    d1 = (-r[4] + 8 * r[3] - 8 * r[1] + r[0]) / (12 * h)
    d2 = (-r[4] + 16 * r[3] - 30 * r[2] + 16 * r[1] - r[0]) / (12 * h * h)
    return d1, d2


ALL_KERNELS = [
    make_sdho(1.0, 0.5, 1.0),
    make_sdho(1.0, 1.0, 1.0),
    make_sdho(1.5, 2.5, 2.0),
    make_ou_mean_revert(1.0, 0.5, 1.0),
    make_ou_mean_revert(2.0, 0.1, 1.0),
    make_rational_quadratic(1.0, 1.0, 2.0),
    make_rational_quadratic(1.0, 2.0, 0.75),
    make_squared_exponential(1.0, 1.0),
    make_squared_exponential(0.5, 3.0),
]


class TestClosedForms:
    def test_sdho_critical_damping_formula(self):
        k = make_sdho(2.0, 1.0, 1.0)
        for t in (0.0, 0.3, 1.0, 2.5):
            expected = 0.25 * math.exp(-2.0 * t) * (1.0 + 2.0 * t)
            assert k.eval(t).r == pytest.approx(expected, rel=1e-14)

    def test_ou_variance_at_zero(self):
        k = make_ou_mean_revert(1.0, 0.1, 1.0)
        assert k.r0 == pytest.approx(0.1 / 1.1, rel=1e-14)

    def test_rq_point_value(self):
        k = make_rational_quadratic(1.0, 1.0, 2.0)
        assert k.eval(1.0).r == pytest.approx(0.64, rel=1e-14)

    def test_se_gaussian(self):
        k = make_squared_exponential(1.0, 1.0)
        assert k.eval(1.3).r == pytest.approx(math.exp(-1.3 ** 2 / 2.0), rel=1e-14)

    def test_moments_at_zero(self):
        for k in ALL_KERNELS:
            d = k.eval(0.0)
            assert d.r == pytest.approx(k.r0, rel=1e-14)
            assert d.p == pytest.approx(0.0, abs=1e-14 * k.r0)
            assert d.q == pytest.approx(k.q0, rel=1e-12)


class TestDerivativeConsistency:
    def test_fd_matches_closed_forms(self):
        for k in ALL_KERNELS:
            for frac in (0.3, 1.0, 3.0):
                t = frac * k.tau_slow
                d = k.eval(t)
                d1, d2 = fd_derivatives(k, t, h=1e-4 * k.tau_slow)
                scale = max(abs(d.p), k.r0 / k.tau_slow)
                assert abs(d.p - d1) <= 1e-5 * scale, (k.family, t)
                scale2 = max(abs(d.q), k.q0)
                assert abs(-d.q - d2) <= 1e-4 * scale2, (k.family, t)

    def test_taylor_matches_eval_at_small_lags(self):
        for k in ALL_KERNELS:
            coeffs = k.taylor
            for t in (1e-4 * k.tau_slow, 1e-3 * k.tau_slow):
                series = sum(c * t ** j for j, c in enumerate(coeffs))
                assert series == pytest.approx(k.eval(t).r, rel=1e-10)


class TestBranchesAndLimits:
    def test_sdho_branch_continuity_at_critical(self):
        lo = make_sdho(1.0, 1.0 - 1e-9, 1.0)
        hi = make_sdho(1.0, 1.0 + 1e-9, 1.0)
        mid = make_sdho(1.0, 1.0, 1.0)
        for t in (0.5, 2.0, 10.0):
            assert lo.eval(t).r == pytest.approx(mid.eval(t).r, rel=1e-6)
            assert hi.eval(t).r == pytest.approx(mid.eval(t).r, rel=1e-6)

    def test_ou_equal_timescales_limit(self):
        near = make_ou_mean_revert(1.0, 1.0 - 1e-10, 1.0)
        at = make_ou_mean_revert(1.0, 1.0, 1.0)
        for t in (0.3, 1.0, 5.0):
            assert near.eval(t).r == pytest.approx(at.eval(t).r, rel=1e-7)

    def test_deep_overdamped_no_overflow(self):
        k = make_sdho(1.0, 25.0, 1.0)
        d = k.eval(50.0 * k.tau_slow)
        assert math.isfinite(d.r) and math.isfinite(d.q)

    def test_rq_large_shape_approaches_se(self):
        rq = make_rational_quadratic(1.0, 1.0, 1e6)
        se = make_squared_exponential(1.0, 1.0)
        for t in (0.5, 1.0, 2.0):
            assert rq.eval(t).r == pytest.approx(se.eval(t).r, rel=1e-4)

    def test_ou_to_sdho_pointwise(self):
        ou = make_ou_mean_revert(1.0, 0.5, 1.0)
        osc = map_ou_to_sdho(ou)
        assert osc.zeta >= 1.0
        for t in (0.0, 0.2, 1.0, 4.0):
            a, b = ou.eval(t), osc.eval(t)
            assert b.r == pytest.approx(a.r, rel=1e-12)
            assert b.q == pytest.approx(a.q, rel=1e-10, abs=1e-12)


def sdho_reference(kernel, t):
    """(r, p, q) of the oscillator from its two exponentials, in mpmath.

    With roots l+- = w (zeta +- sqrt(zeta^2 - 1)), complex below critical
    damping, r = A (l+ e^{-l- t} - l- e^{-l+ t}) / (l+ - l-).  Critical
    damping is taken 1e-40 above zeta = 1, far below double precision.
    """
    with mp.workdps(50):
        w, z, t = mp.mpf(kernel.omega0), mp.mpf(kernel.zeta), mp.mpf(t)
        if z == 1:
            z += mp.mpf(10) ** -40
        root = mp.sqrt(mp.mpc(z * z - 1))
        fast, slow = w * (z + root), w * (z - root)
        e_fast, e_slow = mp.exp(-fast * t), mp.exp(-slow * t)
        scale = mp.mpf(kernel.r0) / (fast - slow)
        r = scale * (fast * e_slow - slow * e_fast)
        p = scale * fast * slow * (e_fast - e_slow)
        q = scale * fast * slow * (fast * e_fast - slow * e_slow)
        return tuple(float(mp.re(v)) for v in (r, p, q))


class TestSdhoAgainstMpmath:
    @pytest.mark.parametrize("zeta", [0.3, 0.7, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 3.0, 25.0])
    def test_rpq_within_1e13(self, zeta):
        kernel = make_sdho(1.3, zeta, 0.7)
        lags = [0.0, *(np.geomspace(1e-6, 40.0, 80) * kernel.tau_slow).tolist()]
        if zeta != 1.0:
            # s = 20 ends the hyperbolic form above critical damping.
            at_20 = 20.0 / (kernel.omega0 * math.sqrt(abs(zeta * zeta - 1.0)))
            lags += [at_20 * (1.0 - 1e-9), at_20 * (1.0 + 1e-9), 0.9 * at_20, 1.1 * at_20]
        scales = (kernel.r0, math.sqrt(kernel.r0 * kernel.q0), kernel.q0)
        for t in lags:
            got = kernel.eval(t)
            for name, value, want, scale in zip("rpq", got, sdho_reference(kernel, t), scales):
                assert abs(value - want) <= 1e-13 * scale, (name, t)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: make_sdho(-1.0, 0.5, 1.0),
        lambda: make_sdho(1.0, 0.0, 1.0),
        lambda: make_sdho(1.0, 0.5, -1.0),
        lambda: make_ou_mean_revert(0.0, 0.5, 1.0),
        lambda: make_rational_quadratic(1.0, 1.0, 0.0),
        lambda: make_squared_exponential(1.0, -2.0),
    ])
    def test_invalid_params_raise(self, bad):
        with pytest.raises(KernelError):
            bad()

    @pytest.mark.parametrize("make, args, name", [
        (make_sdho, (math.nan, 1.0, 1.0), "omega0"),
        (make_sdho, (1.0, math.inf, 1.0), "zeta"),
        (make_ou_mean_revert, (1.0, 0.5, -math.inf), "tau_e"),
        (make_rational_quadratic, (1.0, 1.0, math.nan), "alpha_shape"),
        (make_squared_exponential, (math.inf, 1.0), "sigma"),
    ])
    def test_nonfinite_params_raise(self, make, args, name):
        with pytest.raises(KernelError, match=f"^{name} must be finite"):
            make(*args)

    def test_negative_lag_raises(self):
        with pytest.raises(KernelError):
            make_squared_exponential(1.0, 1.0).eval(-0.1)

    def test_validity_report_passes_for_smooth_kernels(self):
        for k in (make_sdho(1.0, 0.7, 1.0), make_squared_exponential(1.0, 1.0)):
            report = check_validity(k)
            assert report.all_passed, report.checks

    def test_validity_short_lag_check_present(self):
        report = check_validity(make_ou_mean_revert(1.0, 0.5, 1.0))
        assert report.passed("short_lag_integrable")
        assert report.passed("positive_moments")

    def test_heavy_tail_rq_flags_decay(self):
        # alpha_shape=0.75 decays as t^-1.5: the 3-decade decay check and
        # the weighted-tail check legitimately fail; the hard gates hold.
        report = check_validity(make_rational_quadratic(1.0, 1.0, 0.75))
        assert report.passed("short_lag_integrable")
        assert report.passed("positive_moments")
        assert not report.passed("weighted_tail_integrable")


class TestArrayEvaluation:
    """eval_array equals eval bit for bit, in every branch of every family."""

    LAGS = np.concatenate([[0.0], np.geomspace(1e-7, 1e3, 400), np.linspace(0.01, 40.0, 257)])

    @pytest.mark.parametrize("kernel", [
        make_sdho(1.0, 0.3, 1.0), make_sdho(1.0, 1.0, 1.0), make_sdho(1.3, 3.0, 0.7),
        make_ou_mean_revert(1.0, 1.0 + 5e-4, 1.0), make_ou_mean_revert(1.0, 1.0 - 5e-4, 1.0),
        make_ou_mean_revert(1.2, 0.05, 1.0), make_rational_quadratic(1.0, 1.0, 0.75),
        make_squared_exponential(1.0, 1.0),
    ], ids=repr)
    def test_matches_eval_bit_for_bit(self, kernel):
        got = kernel.eval_array(self.LAGS)
        want = np.array([kernel.eval(t) for t in self.LAGS.tolist()]).T
        assert np.array(got).tobytes() == want.tobytes()

    def test_lags_reach_every_branch(self):
        for kernel, branches in ((make_sdho(1.0, 0.3, 1.0), ("s = 0", "trig")),
                                 (make_sdho(1.0, 1.0, 1.0), ("s = 0",)),
                                 (make_sdho(1.3, 3.0, 0.7), ("s = 0", "hyperbolic", "split"))):
            # s = w sqrt|zeta^2 - 1| t and the sign of zeta - 1 pick the sdho branch.
            s = kernel.omega0 * math.sqrt(abs(kernel.zeta**2 - 1.0)) * self.LAGS
            z = kernel.zeta
            reached = {"s = 0": s == 0.0, "trig": (s > 0.0) & (z < 1.0),
                       "hyperbolic": (s > 0.0) & (s <= 20.0) & (z > 1.0), "split": (s > 20.0) & (z > 1.0)}
            assert {name for name, mask in reached.items() if mask.any()} == set(branches)
        assert [abs(1.0 - k.kappa) <= 1e-3 for k in (make_ou_mean_revert(1.0, 1.0 + 5e-4, 1.0),
                                                    make_ou_mean_revert(1.2, 0.05, 1.0))] == [True, False]

    def test_negative_lag_raises(self):
        kernel = make_squared_exponential(1.0, 1.0)
        with pytest.raises(KernelError) as array_error:
            kernel.eval_array([0.5, -0.1, -0.2])
        with pytest.raises(KernelError) as float_error:
            kernel.eval(-0.1)
        assert str(array_error.value) == str(float_error.value)


class TestMetadata:
    def test_timescales_positive(self):
        for k in ALL_KERNELS:
            assert k.tau_slow > 0 and k.tau_fast > 0
            assert k.tau_slow >= k.tau_fast * 0.999

    def test_params_round_trip(self):
        k = make_sdho(1.5, 2.5, 2.0)
        assert k.params == {"omega0": 1.5, "zeta": 2.5, "theta": 2.0}
