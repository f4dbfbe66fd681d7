"""Tests for the covariance-kernel families.

Derivative oracle: high-order central finite differences of r(t), computed
before comparing against the closed-form p and q returned by eval().
"""

import math

import mpmath as mp
import numpy as np
import pytest

from levelcross import crossings, quadrature
from levelcross.kernels import (
    KernelError,
    SquaredExponentialKernel,
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
        # At the switch lag, below which the statistics take the series, its
        # r, p and q agree with eval's within 1e-14 of r0, sqrt(r0 q0) and q0:
        # rq below alpha = 0.5 has a series radius under tau, and the
        # strongly overdamped oscillator's coefficients once cancelled.
        for k in [*ALL_KERNELS, *(make_rational_quadratic(1.0, 1.0, a) for a in (0.004, 0.02, 0.1, 0.3)),
                  make_sdho(1.0, 25.0, 1.0), make_sdho(1.0, 100.0, 1.0)]:
            t = 0.1 * k.series_scale
            a = k.taylor
            series = (sum(c * t**j for j, c in enumerate(a)),
                      sum(j * c * t ** (j - 1) for j, c in enumerate(a) if j >= 1),
                      -sum(j * (j - 1) * c * t ** (j - 2) for j, c in enumerate(a) if j >= 2))
            scales = (k.r0, math.sqrt(k.r0 * k.q0), k.q0)
            for name, value, want, scale in zip("rpq", series, k.eval(t), scales):
                assert abs(value - want) <= 1e-14 * scale, (k, name)


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

    @pytest.mark.parametrize("zeta", [1e4, 1e6, 1e7])
    def test_very_large_damping_tau_slow(self, zeta):
        # tau_slow = (zeta + sqrt(zeta^2 - 1))/w, not 1/(w (zeta - sqrt(zeta^2 - 1))).
        with mp.workdps(40):
            want = float(zeta + mp.sqrt(mp.mpf(zeta) ** 2 - 1))
        assert abs(make_sdho(1.0, zeta, 1.0).tau_slow - want) <= 4.0 * math.ulp(want)

    def test_damping_past_double_precision_constructs(self):
        # zeta^2 - 1 rounds to zeta^2: the slow rate is still w/(2 zeta), not 1/0.
        k = make_sdho(1.0, 1e8, 1.0)
        assert k.tau_slow == 2e8 and math.isfinite(k.eval(k.tau_slow).r)

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


def _two_rate_reference(amp, slow, fast, t):
    """(r, p, q) of amp (fast e^{-slow t} - slow e^{-fast t})/(fast - slow),
    or of its limit amp e^{-slow t}(1 + slow t) at fast = slow."""
    e_slow, e_fast = mp.exp(-slow * t), mp.exp(-fast * t)
    if fast == slow:
        return (amp * e_slow * (1 + slow * t), -amp * slow * slow * t * e_slow,
                amp * slow * slow * e_slow * (1 - slow * t))
    scale = amp / (fast - slow)
    return (scale * (fast * e_slow - slow * e_fast), scale * fast * slow * (e_fast - e_slow),
            scale * fast * slow * (fast * e_fast - slow * e_slow))


def _mp_rpq(kernel, t):
    """(r, p, q) of a kernel at lag t from its parameters, analytically in
    mpmath at the working precision.  Both rates of the oscillator are
    complex below critical damping; at critical damping and at kappa = 1 the
    limit form is taken, so no perturbed parameter meets a cancelling
    reference."""
    t = mp.mpf(t)
    par = {name: mp.mpf(value) for name, value in kernel.params.items()}
    if kernel.family == "sdho":
        w, z = par["omega0"], par["zeta"]
        root = mp.sqrt(mp.mpc(z * z - 1))
        rpq = _two_rate_reference(par["theta"] / (w * w), w * (z - root), w * (z + root), t)
    elif kernel.family == "ou_mean_revert":
        tf, te = par["tau_f"], par["tau_e"]
        amp = par["sigma"] ** 2 * tf / (tf + te)
        rpq = _two_rate_reference(amp, 1 / max(tf, te), 1 / min(tf, te), t)
    elif kernel.family == "rational_quadratic":
        s2, tau2, a = par["sigma"] ** 2, par["tau"] ** 2, par["alpha_shape"]
        base = 1 + t * t / (2 * a * tau2)
        rpq = (s2 * base**-a, -s2 * t / tau2 * base ** (-a - 1),
               s2 / tau2 * base ** (-a - 2) * (base - (a + 1) * t * t / (a * tau2)))
    else:
        s2, tau2 = par["sigma"] ** 2, par["tau"] ** 2
        r = s2 * mp.exp(-t * t / (2 * tau2))
        rpq = (r, -r * t / tau2, r * (1 / tau2 - t * t / (tau2 * tau2)))
    return tuple(mp.re(v) for v in rpq)


def mpmath_reference(kernel, t):
    """``_mp_rpq`` at 60 digits, as floats."""
    with mp.workdps(60):
        return tuple(float(v) for v in _mp_rpq(kernel, t))


MPMATH_KERNELS = [
    *(pytest.param(make_ou_mean_revert(1.3, 0.8 * kappa, 0.8), id=f"ou kappa={kappa!r}")
      for kappa in (0.01, 0.3, 0.998, 1.0, 1.002, 3.0, 100.0)),
    *(pytest.param(make_rational_quadratic(1.2, 0.9, a), id=f"rq alpha={a!r}")
      for a in (0.1, 0.75, 2.0, 50.0, 1e4)),
    pytest.param(make_squared_exponential(1.1, 0.7), id="se"),
    *(pytest.param(make_sdho(1.3, z, 0.7), id=f"sdho zeta={z!r}")
      for z in (0.05, 0.3, 0.7, 1.0 - 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-6, 2.0, 3.0, 25.0, 100.0)),
]


class TestKernelsAgainstMpmath:
    @pytest.mark.parametrize("kernel", MPMATH_KERNELS)
    def test_rpq_within_1e15(self, kernel):
        lags = [0.0, *(np.geomspace(1e-6, 40.0, 80) * kernel.tau_slow).tolist()]
        scales = (kernel.r0, math.sqrt(kernel.r0 * kernel.q0), kernel.q0)
        for t in lags:
            got = kernel.eval(t)
            for name, value, want, scale in zip("rpq", got, mpmath_reference(kernel, t), scales):
                assert abs(value - want) <= 1e-15 * scale, (name, t)


    @pytest.mark.parametrize("kernel", MPMATH_KERNELS)
    def test_r_minus_r0_relative(self, kernel):
        # rm = r - r0 keeps its relative accuracy where the statistics read
        # it, at and past the switch lag 0.1 series_scale, where |r - r0| is
        # down to 1e-7 of r0 here (sdho zeta = 100).  Measured worst: 5.7e-15
        # for the two-rate, rq and se forms, which avoid the difference, and
        # 5.2e-14 for the circular form (r - r0 itself, at most a few
        # hundred ulps there).  The reference subtracts its own r(0), so the
        # rounding of r0 from the parameters does not count.
        circular = kernel.family == "sdho" and kernel.zeta < 1.0
        lags = (np.geomspace(0.1, 1e3, 60) * kernel.series_scale).tolist()
        for t in lags:
            with mp.workdps(60):
                want = float(_mp_rpq(kernel, t)[0] - _mp_rpq(kernel, 0.0)[0])
            assert abs(kernel.eval(t).rm - want) <= (1e-13 if circular else 1e-14) * abs(want), t


class TestTailIntegral:
    """R(t) = int_t^inf r(s) ds in closed form, against mpmath quadrature of
    the analytic r, within 1e-13 of int_t^inf |r|."""

    @pytest.mark.parametrize("kernel", [
        make_sdho(1.3, 0.3, 0.7), make_sdho(1.0, 0.7, 1.0), make_sdho(1.0, 1.0, 1.0),
        make_sdho(1.3, 2.0, 0.7), make_sdho(1.0, 25.0, 1.0), make_ou_mean_revert(1.2, 0.3, 0.8),
        make_ou_mean_revert(1.0, 1.0, 1.0), make_ou_mean_revert(1.0, 100.0, 1.0),
        make_rational_quadratic(1.2, 0.9, 0.75), make_rational_quadratic(1.0, 1.0, 2.0),
        make_squared_exponential(1.1, 0.7),
    ], ids=repr)
    def test_matches_mpmath_quadrature(self, kernel):
        tau = kernel.tau_slow
        r = lambda s: _mp_rpq(kernel, s)[0]  # noqa: E731
        if kernel.family == "sdho" and kernel.zeta < 1.0:  # the real circular form
            w, z = mp.mpf(kernel.omega0), mp.mpf(kernel.zeta)
            zw, wd = z * w, w * mp.sqrt(1 - z * z)
            r = lambda s: (mp.mpf(kernel.theta) / (w * w) * mp.exp(-zw * s)  # noqa: E731
                           * (mp.cos(wd * s) + zw * mp.sin(wd * s) / wd))
        for m in (0.0, 0.5, 3.0, 8.0):
            t = m * tau
            with mp.workdps(25):
                # Panels that grow from tau_slow/64 by fours, then the tail to inf.
                points = [mp.mpf(t)] + [t + mp.mpf(tau) * 4**j for j in range(-3, 8)] + [mp.inf]
                want = mp.quad(r, points)
                # int_t^inf |r|, or for the oscillator a bound on it from r's envelope.
                scale = (kernel.r0 * math.exp(-t / tau) * (1.0 + 1.0 / (tau * kernel._omega_d)) * tau
                         if kernel.family == "sdho" and kernel.zeta < 1.0 else want)
            assert abs(kernel.tail_integral(t) - want) <= 1e-13 * scale, (kernel, m)

    def test_slow_power_law_matches_mpmath_betainc(self):
        # At alpha = 0.55 the tail decays like t^-1.1, past what mpmath's
        # quadrature resolves, so scipy's betainc at a = 0.05 is checked
        # against mpmath's at 40 digits, out to 1e7 tau.
        kernel = make_rational_quadratic(1.2, 0.9, 0.55)
        for t in (0.0, 0.45, 2.7, 28.8, 9e6):
            with mp.workdps(40):
                a, c = mp.mpf(0.55), 2 * mp.mpf(0.55) * mp.mpf(0.9) ** 2
                want = mp.mpf(1.2) ** 2 / 2 * mp.sqrt(c) * mp.betainc(a - 0.5, 0.5, 0, 1 / (1 + t * t / c))
            assert abs(kernel.tail_integral(t) - want) <= 1e-14 * want, t

    @pytest.mark.parametrize("alpha", [1e-12, 0.3, 0.5])
    def test_divergent_power_law_is_infinite(self, alpha):
        kernel = make_rational_quadratic(1.0, 1.0, alpha)
        assert kernel.tail_integral(0.0) == kernel.tail_integral(32.0) == math.inf


class _WrongA4(SquaredExponentialKernel):
    """The squared exponential with its series' a_4 1% off."""

    def _taylor_coefficients(self):
        a = super()._taylor_coefficients()
        a[4] *= 1.01
        return a


class _Sloped(SquaredExponentialKernel):
    """The squared exponential times 1 - 0.01 t, in closed form and series
    alike: a one-sided series with a_1 = -0.01."""

    def _rpq(self, t, *xp):
        r, p, q, _ = super()._rpq(t, *xp)
        s = 1.0 - 0.01 * t
        return r * s, p * s - 0.01 * r, q * s + 0.02 * p, r * s - self.r0

    def _taylor_coefficients(self):
        a = super()._taylor_coefficients()
        return a - 0.01 * np.concatenate([[0.0], a[:-1]])


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

    @pytest.mark.parametrize("make, args, name", [
        (make_sdho, (1e-200, 0.5, 1.0), "r0"),
        (make_sdho, (1e200, 1.0, 1.0), "r0"),
        (make_ou_mean_revert, (1e200, 0.5, 1.0), "r0"),
        (make_ou_mean_revert, (1.0, 1e-200, 1e-200), "q0"),
        (make_rational_quadratic, (1.0, 1e-200, 1.0), "q0"),
        (make_rational_quadratic, (1.0, 1e300, 1.0), "q0"),
        (make_squared_exponential, (1e-200, 1.0), "r0"),
        (make_squared_exponential, (1.0, 1e-160), "q0"),
    ])
    def test_scales_outside_the_floats_raise(self, make, args, name):
        # Finite parameters whose squares or ratios overflow or underflow:
        # a KernelError that names the parameters, not a ZeroDivisionError.
        with pytest.raises(KernelError, match=rf"^\w+Kernel\(.*\) gives {name} = "):
            make(*args)

    def test_validity_requires_float_moments(self):
        # A stand-in whose q0 overflowed, or whose r0 q0 underflows, fails the
        # moment check; the gate reports it and does not raise.
        for r0, q0 in ((1.0, math.inf), (1e-300, 1e-300)):
            stand_in = make_sdho(1.0, 0.7, 1.0)
            stand_in.r0, stand_in.q0 = r0, q0
            assert not check_validity(stand_in).passed("positive_moments")

    def test_negative_lag_raises(self):
        with pytest.raises(KernelError):
            make_squared_exponential(1.0, 1.0).eval(-0.1)

    def test_validity_report_passes_for_smooth_kernels(self):
        for k in (make_sdho(1.0, 0.7, 1.0), make_squared_exponential(1.0, 1.0)):
            report = check_validity(k)
            assert report.all_passed, report.checks

    def test_validity_runs_the_two_checks_on_one_lag(self, monkeypatch):
        # The gate evaluates the kernel once, at the switch lag, and integrates nothing.
        kernel = make_rational_quadratic(1.0, 1.0, 0.75)
        calls = []
        original = type(kernel).eval

        def never(*args, **kwargs):
            raise AssertionError("the gate evaluates one lag and integrates nothing")

        monkeypatch.setattr(type(kernel), "eval", lambda self, t: calls.append(t) or original(self, t))
        monkeypatch.setattr(type(kernel), "eval_array", never)
        monkeypatch.setattr(quadrature, "_quadrature", never)
        report = check_validity(kernel)
        assert calls == [0.1 * kernel.series_scale]
        assert list(report.checks) == ["positive_moments", "series_matches"] and report.all_passed

    @pytest.mark.parametrize("kernel", [_WrongA4(1.0, 1.0), _Sloped(1.0, 1.0)],
                             ids=["a_4 1% off", "a_1 = -0.01"])
    def test_series_that_misses_eval_fails_the_gate(self, kernel):
        # Below the switch lag the statistics take the series: a wrong a_4
        # moved F at u = 0.5 by 5x its error bar, without a warning, and
        # a_1 != 0 raised DegenerateLagError.
        report = check_validity(kernel)
        assert report.passed("positive_moments") and not report.passed("series_matches")
        for call in (lambda: crossings.variance_rate_asymptotic(kernel, 0.5),
                     lambda: crossings.variance_count(kernel, 0.5, 10.0)):
            with pytest.raises(crossings.ValidityError, match=r"series_matches.*'t': 0\.1,") as err:
                call()
            assert "positive_moments" not in str(err.value) and "np.float64" not in str(err.value)


class TestArrayEvaluation:
    """eval_array equals eval bit for bit, in every branch of every family."""

    LAGS = np.concatenate([[0.0], np.geomspace(1e-7, 1e3, 400), np.linspace(0.01, 40.0, 257)])

    @pytest.mark.parametrize("kernel", [
        make_sdho(1.0, 0.3, 1.0), make_sdho(1.0, 1.0, 1.0), make_sdho(1.3, 3.0, 0.7),
        make_ou_mean_revert(1.0, 1.0 + 5e-4, 1.0), make_ou_mean_revert(1.0, 1.0 - 5e-4, 1.0),
        make_ou_mean_revert(1.2, 0.05, 1.0), make_rational_quadratic(1.0, 1.0, 0.75),
        make_squared_exponential(1.0, 1.0),
        make_ou_mean_revert(1.0, 1.0, 1.0), make_ou_mean_revert(1.0, 100.0, 1.0),
        pytest.param(make_sdho(1.0, 1.0 + 1e-6, 1.0), id="SdhoKernel(omega0=1, zeta=1+1e-6, theta=1)"),
        pytest.param(make_sdho(1.0, 1.0 - 1e-9, 1.0), id="SdhoKernel(omega0=1, zeta=1-1e-9, theta=1)"),
        make_sdho(1.0, 100.0, 1.0), make_rational_quadratic(1.0, 1.0, 1e4),
    ], ids=repr)
    def test_matches_eval_bit_for_bit(self, kernel):
        got = kernel.eval_array(self.LAGS)
        want = np.array([kernel.eval(t) for t in self.LAGS.tolist()]).T
        assert np.array(got).tobytes() == want.tobytes()

    def test_kernels_reach_every_form(self):
        # No form branches on the lag; the form is picked once per kernel: the
        # two-rate form of ou and of the oscillator at and above critical
        # damping, with a rate gap or none, and the circular form below it.
        for kernel, form in ((make_sdho(1.0, 0.3, 1.0), "circular"),
                             (make_sdho(1.0, 1.0, 1.0), "gap = 0"),
                             (make_sdho(1.3, 3.0, 0.7), "gap > 0"),
                             (make_ou_mean_revert(1.0, 1.0, 1.0), "gap = 0"),
                             (make_ou_mean_revert(1.2, 0.05, 1.0), "gap > 0")):
            rates = kernel._rates
            reached = "circular" if rates is None else "gap > 0" if rates[2] > 0.0 else "gap = 0"
            assert reached == form, kernel

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
