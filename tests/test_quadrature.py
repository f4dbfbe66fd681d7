"""Tests for the adaptive Gauss-Kronrod integrator against analytic values."""

import math

import numpy as np
import pytest

from levelcross import quadrature
from levelcross.quadrature import (
    IntegrationError,
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite_rows,
    pointwise,
)


def integrate_one(f, lo, spec=None, **options):
    """One integrand of one abscissa on [lo, inf), as a row of one."""
    return integrate_semi_infinite_rows(lambda ts: np.array([[f(t) for t in ts.tolist()]]),
                                        1, lo, spec, **options)[0]


class TestFinite:
    def test_polynomial_near_exact(self):
        r = integrate_finite(pointwise(lambda t: 3.0 * t * t), 0.0, 2.0)
        assert r.value == pytest.approx(8.0, rel=1e-14)
        assert r.converged

    def test_oscillatory(self):
        r = integrate_finite(pointwise(math.sin), 0.0, 50.0)
        assert r.value == pytest.approx(1.0 - math.cos(50.0), rel=1e-9)
        assert r.converged

    def test_inverse_sqrt_open_left(self):
        # Integrable singularity at the left endpoint: int_0^1 t^-1/2 = 2.
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
        r = integrate_finite(pointwise(lambda t: t ** -0.5), 0.0, 1.0, spec, open_left=1e-7)
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_open_left_never_evaluates_endpoint(self):
        seen = []

        def f(t):
            seen.append(t)
            return 1.0

        integrate_finite(pointwise(f), 0.0, 1.0, open_left=1e-7)
        assert min(seen) > 0.0

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            integrate_finite(pointwise(lambda t: t), 1.0, 1.0)

    def test_nonfinite_integrand_raises_with_abscissa(self):
        with pytest.raises(IntegrationError) as err:
            integrate_finite(pointwise(lambda t: math.nan), 0.0, 1.0)
        assert err.value.abscissa is not None
        assert 0.0 <= err.value.abscissa <= 1.0

    def test_breakpoints_seed_segments(self):
        # A kink at an interior breakpoint integrates cleanly when seeded.
        r = integrate_finite(pointwise(lambda t: abs(t - 0.5)), 0.0, 1.0, breakpoints=(0.5,))
        assert r.value == pytest.approx(0.25, rel=1e-12)

    def test_refinement_tightens_error(self):
        f = pointwise(lambda t: math.exp(-t) * math.sin(20.0 * t))
        coarse = integrate_finite(f, 0.0, 10.0, QuadratureSpec(max_subdivisions=2))
        fine = integrate_finite(f, 0.0, 10.0, QuadratureSpec(max_subdivisions=500))
        assert fine.error < coarse.error
        assert fine.converged

    def test_stops_at_floating_point_resolution(self):
        # A unit step 3 ulp into [1, 1 + 8 ulp] cannot meet a 1e-300
        # tolerance: once every panel is too narrow to bisect, the loop
        # stops, far below the subdivision cap, and reports no convergence.
        ulp = math.ulp(1.0)
        step = pointwise(lambda t: 1.0 if t >= 1.0 + 3.0 * ulp else 0.0)
        r = integrate_finite(step, 1.0, 1.0 + 8.0 * ulp, QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300))
        assert not r.converged
        assert r.evaluations == 195
        assert r.value == pytest.approx(5.0 * ulp, rel=1e-15)


class TestSpec:
    @pytest.mark.parametrize("fields, name", [
        ({"rel_tol": math.nan}, "rel_tol"),
        ({"rel_tol": 0.0}, "rel_tol"),
        ({"abs_tol": math.inf}, "abs_tol"),
        ({"max_subdivisions": 2.5}, "max_subdivisions"),
        ({"max_subdivisions": 0}, "max_subdivisions"),
    ])
    def test_bad_field_named(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            QuadratureSpec(**fields)


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_one(lambda t: math.exp(-t), 0.0)
        assert r.value == pytest.approx(1.0, rel=1e-10)
        assert r.converged

    def test_gaussian(self):
        r = integrate_one(lambda t: math.exp(-t * t), 0.0)
        assert r.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)

    def test_shifted_origin(self):
        r = integrate_one(lambda t: math.exp(-(t - 2.0)), 2.0)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_tail_scale_respected(self):
        r = integrate_one(lambda t: math.exp(-t / 10.0), 0.0, scale=10.0)
        assert r.value == pytest.approx(10.0, rel=1e-10)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_raises(self, scale):
        with pytest.raises(ValueError, match=r"^scale must be finite and > 0"):
            integrate_semi_infinite_rows(lambda ts: np.ones((1, len(ts))), 1, 0.0, scale=scale)

    def test_power_law_tail_converges(self):
        # A t^-3.5 tail is integrated to the end by the same map as an
        # exponential one: int_0^inf (1+t)^-3.5 dt = 0.4.
        r = integrate_one(lambda t: (1.0 + t) ** -3.5, 0.0)
        assert r.converged
        assert abs(r.value - 0.4) <= r.error


class TestSemiInfiniteRows:
    """Rows of integrands in lockstep: each row's result is its one-row
    call's bit for bit."""

    RATES = (0.25, 1.0, 3.0, 40.0)

    @pytest.mark.parametrize("spec", [None, QuadratureSpec(rel_tol=1e-6, max_subdivisions=5)])
    @pytest.mark.parametrize("open_left", [None, 1e-7])
    def test_rows_equal_single_calls(self, spec, open_left):
        calls = []

        def rows(ts, rates=np.array(self.RATES)[:, None]):
            calls.append(len(ts))
            return 1.0 / ((1.0 + rates * ts) * (1.0 + rates * ts)) + ts / (1.0 + ts * ts * ts)

        got = integrate_semi_infinite_rows(rows, len(self.RATES), 0.5, spec, scale=2.0,
                                           open_left=open_left)
        n_calls = len(calls)
        expected = [integrate_semi_infinite_rows(lambda ts, c=c: rows(ts, np.array([[c]])), 1, 0.5,
                                                 spec, scale=2.0, open_left=open_left)[0]
                    for c in self.RATES]
        assert got == expected
        assert n_calls < sum(r.evaluations for r in expected) // 15

    def test_failing_prefetch_is_dropped(self, monkeypatch):
        # Round 0 also evaluates stub panels that a row may never ask for; if
        # that call raises, round 0 evaluates the requested panels alone.
        asked, failed = set(), []

        def f(ts):
            return 1.0 / ((1.0 + ts) * (1.0 + ts))[None]

        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_ROUND0_STUB", 0)
            expected = integrate_semi_infinite_rows(lambda ts: asked.update(ts.tolist()) or f(ts),
                                                    1, 0.0, open_left=1e-7)

        def strict(ts):
            failed.append(not asked.issuperset(ts.tolist()))
            if failed[-1]:
                raise ZeroDivisionError("a lag the row never asks for")
            return f(ts)

        assert integrate_semi_infinite_rows(strict, 1, 0.0, open_left=1e-7) == expected
        assert failed[0] and not any(failed[1:])

    def test_no_rows(self):
        assert integrate_semi_infinite_rows(lambda ts: 1 / 0, 0, 0.0, open_left=1e-7) == []

    def test_nonfinite_value_raises(self):
        last = []

        def rows(ts):
            last[:] = [ts[-1]]
            values = np.ones((2, len(ts)))
            values[1, -1] = math.nan
            return values

        with pytest.raises(IntegrationError) as err:
            integrate_semi_infinite_rows(rows, 2, 0.0, open_left=1e-7)
        assert err.value.abscissa == last[0]  # the lag f was given

    def test_nonfinite_value_reports_its_lag(self):
        # The lag, past lo, in the message and the attribute; not the tail
        # map's coordinate x in [0, 1).
        def rows(ts):
            return np.where(ts > 3.0, math.nan, 1.0)[None, :]

        with pytest.raises(IntegrationError) as err:
            integrate_semi_infinite_rows(rows, 1, 10.0, open_left=1e-7)
        assert err.value.abscissa > 10.0
        assert str(err.value) == f"non-finite integrand value at t={err.value.abscissa!r}"


class TestErrorHonesty:
    # 20 analytic integrals with exponential or faster decay (the regime the
    # estimator is designed for): the reported error must bound the true
    # error in at least 95% of cases.
    CASES = [
        (lambda t: math.exp(-t), 0.0, 1.0),
        (lambda t: math.exp(-2.0 * t), 0.0, 0.5),
        (lambda t: t * math.exp(-t), 0.0, 1.0),
        (lambda t: t * t * math.exp(-t), 0.0, 2.0),
        (lambda t: math.exp(-t * t), 0.0, 0.5 * math.sqrt(math.pi)),
        (lambda t: t * math.exp(-t * t), 0.0, 0.5),
        (lambda t: math.exp(-t) * math.sin(t), 0.0, 0.5),
        (lambda t: math.exp(-t) * math.cos(t), 0.0, 0.5),
        (lambda t: math.exp(-t) * math.sin(3.0 * t), 0.0, 0.3),
        (lambda t: math.exp(-0.5 * t), 0.0, 2.0),
        (lambda t: math.exp(-t) / (1.0 + t) ** 0, 0.0, 1.0),
        (lambda t: 3.0 * math.exp(-3.0 * t), 0.0, 1.0),
        (lambda t: math.exp(-t) * t ** 3, 0.0, 6.0),
        (lambda t: math.exp(-t * t / 4.0), 0.0, math.sqrt(math.pi)),
        (lambda t: math.exp(-(t - 1.0) ** 2), 1.0, 0.5 * math.sqrt(math.pi)),
        (lambda t: math.exp(-t) * math.cos(5.0 * t), 0.0, 1.0 / 26.0),
        (lambda t: t ** 4 * math.exp(-2.0 * t), 0.0, 24.0 / 32.0),
        (lambda t: math.exp(-1.5 * t), 0.0, 1.0 / 1.5),
        (lambda t: math.exp(-t) * (1.0 + math.sin(t) ** 2), 0.0, 1.0 + 0.4),
        (lambda t: 2.0 * t * math.exp(-t * t), 0.0, 1.0),
    ]

    def test_error_bounds_true_error(self):
        honest = 0
        for f, lo, exact in self.CASES:
            r = integrate_one(f, lo)
            true_err = abs(r.value - exact)
            if true_err <= max(r.error, 1e-15):
                honest += 1
        assert honest >= 0.95 * len(self.CASES)

