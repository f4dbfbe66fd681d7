"""Tests for the closed-form crossing statistics.

Brute-force oracles (2D velocity integrals, hand-evaluated rate formulas)
are defined in levelcross.montecarlo and in this file before the closed
forms are compared against them.
"""

import math

import numpy as np
import pytest

from levelcross.crossings import (
    CrossingMode,
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
    make_ou_mean_revert,
    make_rational_quadratic,
    make_sdho,
    make_squared_exponential,
)
from levelcross.montecarlo import bruteforce_integrand_total, bruteforce_integrand_up

SDHO = make_sdho(1.0, 1.0, 1.0)
SE = make_squared_exponential(1.0, 1.0)


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

    def test_linearized_handover_continuity(self):
        # SE correlation level crosses the 1e-4 switch near t ~ 5.0; the
        # full bracket and the weak-correlation expansion must agree
        # through the switch region.
        from levelcross.crossings import _linearized
        for t in (4.6, 4.8, 5.0, 5.2):
            exact = integrand_up(SE, 0.5, t)
            approx = _linearized(SE, 0.5, SE.eval(t), total=False)
            assert approx == pytest.approx(exact, rel=1e-7)


class TestVariance:
    def test_tiny_horizon_is_poisson_like(self):
        # As T -> 0 at most one crossing fits, so variance -> mean.
        st = variance_count(SDHO, 0.5, 1e-6, "up")
        assert st.variance == pytest.approx(st.mean, rel=1e-5)

    def test_asymptotic_rate_positive_and_converged(self):
        st = variance_rate_asymptotic(SDHO, 0.5, "up")
        assert st.variance > 0
        assert st.quad_converged

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


class TestZeroLevel:
    def test_matches_general_path(self):
        kernels = [make_sdho(1.0, 0.5, 1.0), SDHO, make_sdho(1.0, 2.5, 1.0),
                   make_ou_mean_revert(1.0, 0.5, 1.0),
                   make_rational_quadratic(1.0, 1.0, 2.0), SE]
        for k in kernels:
            for mode in ("up", "total"):
                z = zero_level_stats(k, None, mode)
                g = variance_rate_asymptotic(k, 0.0, mode)
                assert z.mean == pytest.approx(g.mean, rel=1e-12)
                assert z.variance == pytest.approx(g.variance, rel=1e-10)
                assert z.fano == pytest.approx(g.fano, rel=1e-10)

    def test_finite_horizon_variant(self):
        for mode in ("up", "total"):
            z = zero_level_stats(SDHO, 50.0, mode)
            g = variance_count(SDHO, 0.0, 50.0, mode)
            assert z.variance == pytest.approx(g.variance, rel=1e-10)


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

    def test_accepts_kernel_instance(self):
        k = make_sdho(1.0, 0.5, 1.0)
        a = dimensionless_fano(k, 0.5)
        b = fano(make_sdho(2.0, 0.5, 3.0), 0.5 * math.sqrt(3.0 / 4.0))
        assert a == pytest.approx(b, abs=1e-9)
