"""
levelcross.kernels
==================

Autocorrelation kernels for the smooth stationary Gaussian processes the
crossing statistics operate on.  Three model families are built in:

* ``sdho``  -- position of a stochastically driven damped harmonic
  oscillator, with the underdamped / critically damped / overdamped
  branches unified in a single expression so the evaluation is smooth in
  the damping ratio across zeta = 1;
* ``ou_mean_revert`` -- a mean-reverting observable driven by
  Ornstein-Uhlenbeck noise (bi-exponential correlation), evaluated in a
  cancellation-free form that remains exact as the two timescales merge;
* ``rational_quadratic`` and its large-shape limit ``squared_exponential``.

Every kernel evaluates (r(t), r'(t), -r''(t)) in closed form -- no numeric
differentiation -- and carries a one-sided Taylor expansion of r about
t = 0 (to t^16) that downstream code uses for cancellation-safe short-lag
evaluation of the crossing parameters.

Each family's closed form is written once, in the operations of
:mod:`levelcross._xp`, and serves ``Kernel.eval`` (one lag, Python floats)
and ``Kernel.eval_array`` (a 1-D array of lags) alike; every element of an
array evaluation has the bits of ``eval`` at that lag.  On arrays a branch
(the deep overdamped split, the three forms of ``_cs_pair``) is picked by
mask, and each branch sees only its own lags.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._xp import _Arrays, _Floats
from .quadrature import QuadratureSpec, integrate_finite

__all__ = [
    "Kernel",
    "KernelDerivatives",
    "KernelError",
    "ValidityReport",
    "make_sdho",
    "make_ou_mean_revert",
    "make_rational_quadratic",
    "make_squared_exponential",
    "map_ou_to_sdho",
    "check_validity",
    "default_lag_grid",
]

_TAYLOR_ORDER = 17  # coefficients a_0 .. a_16 of the one-sided expansion


class KernelError(ValueError):
    """Invalid kernel parameters or evaluation domain."""


class KernelDerivatives(NamedTuple):
    """(r, p, q) = (r(t), r'(t), -r''(t)) at one lag t."""

    r: float
    p: float
    q: float
    t: float


class Kernel(ABC):
    """A stationary autocorrelation function with analytic derivatives.

    Immutable after construction; evaluation is pure.  The statistics cache
    per-kernel work on it, so it must not be mutated after first use.
    Attributes:

    family      short family identifier
    params      constructor parameters (dict)
    r0, q0      r(0) and -r''(0), exact closed forms
    tau_slow    slowest decay timescale (drives grids and tails downstream)
    tau_fast    shortest timescale the sampled process resolves
    shape       dimensionless shape parameters (dict): what is left of the
                parameters once amplitude and timescale are scaled out
    """

    family: str
    params: dict
    r0: float
    q0: float
    tau_slow: float
    tau_fast: float
    shape: dict

    def __init__(self):
        # Crossing-statistics caches, declared so filling them keeps the instance compact.
        self._abg_poly_cache = None
        self._gate_cache = None

    def eval(self, t: float) -> KernelDerivatives:
        """Closed-form (r, p, q) at lag t >= 0."""
        if t < 0.0:
            raise _negative_lag(t)
        r, p, q = self._rpq(float(t))
        return KernelDerivatives(r, p, q, float(t))

    def eval_array(self, t) -> KernelDerivatives:
        """(r, p, q) over a 1-D array of lags t >= 0, as arrays with the
        bits of ``eval`` in every element."""
        t = np.asarray(t, dtype=float)
        if np.count_nonzero(t < 0.0):
            raise _negative_lag(float(t[t < 0.0][0]))
        r, p, q = self._rpq(t, _Arrays)
        return KernelDerivatives(r, p, q, t)

    @abstractmethod
    def _rpq(self, t, xp=_Floats) -> tuple:
        """(r, p, q) at t: floats, or arrays with ``xp=_Arrays``."""

    @abstractmethod
    def _taylor_coefficients(self) -> np.ndarray:
        """One-sided series r(t) = sum a_k t^k for small t > 0."""

    @property
    def taylor(self) -> np.ndarray:
        """The series coefficients, computed on each access: the short-lag
        tables built from them are what the statistics cache."""
        return self._taylor_coefficients()

    @property
    def series_scale(self) -> float:
        """Convergence scale of the small-lag series: the truncated Taylor
        expansion of r(t) is accurate for t well below this scale."""
        return self.tau_fast

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


def _negative_lag(t: float) -> KernelError:
    return KernelError(f"lag must be >= 0 (got {t}); use r(-t) = r(t) explicitly")


def _cs_pair(xp, x):
    """C(x) = cosh(sqrt(x)) and S(x) = sinh(sqrt(x))/sqrt(x), continued to x <= 0.

    For x < 0 these are cos(sqrt(-x)) and sin(sqrt(-x))/sqrt(-x); near 0 the
    even power series keeps the pair smooth through the sign change.
    """
    return xp.select(x > 0.01, _cosh_pair, _cs_near_zero, x)


def _cosh_pair(xp, x):
    s = xp.sqrt(x)
    return xp.cosh(s), xp.sinh(s) / s


def _cs_near_zero(xp, x):
    return xp.select(x < -0.01, _cos_pair, _cs_series, x)


def _cos_pair(xp, x):
    s = xp.sqrt(-x)
    return xp.cos(s), xp.sin(s) / s


def _cs_series(xp, x):
    c = 1.0
    sv = 1.0
    term_c = 1.0
    term_s = 1.0
    for k in range(1, 9):
        term_c *= x / ((2 * k - 1) * (2 * k))
        term_s *= x / ((2 * k) * (2 * k + 1))
        c += term_c
        sv += term_s
    return c, sv


class SdhoKernel(Kernel):
    """Damped-harmonic-oscillator position autocorrelation.

    For t > 0 every damping branch is r(t) = A e^{-zeta w t}(C(x) + zeta w t S(x))
    with x = w^2(zeta^2-1) t^2, which hands back the familiar cos/cosh forms for
    x of either sign and stays smooth through critical damping.
    """

    family = "sdho"

    def __init__(self, omega0: float, zeta: float, theta: float):
        super().__init__()
        if omega0 <= 0 or theta <= 0:
            raise KernelError("omega0 and theta must be > 0")
        if zeta <= 0:
            raise KernelError("zeta must be > 0 (undamped process never decorrelates)")
        self.params = {"omega0": omega0, "zeta": zeta, "theta": theta}
        self.omega0 = omega0
        self.zeta = zeta
        self.theta = theta
        self.r0 = theta / omega0**2
        self.q0 = theta
        if zeta > 1.0:
            self.tau_slow = 1.0 / (omega0 * (zeta - math.sqrt(zeta * zeta - 1.0)))
        else:
            self.tau_slow = 1.0 / (zeta * omega0)
        self.tau_fast = 1.0 / omega0
        self.shape = {"zeta": zeta}

    @property
    def series_scale(self) -> float:
        # Taylor convergence is set by the fastest exponential root,
        # omega0 * (zeta + sqrt(zeta^2 - 1)) when overdamped.
        z = self.zeta
        fast_root = max(1.0, z + math.sqrt(max(z * z - 1.0, 0.0)))
        return 1.0 / (self.omega0 * fast_root)

    def _rpq(self, t, xp=_Floats):
        w = self.omega0
        z = self.zeta
        x = w * w * (z * z - 1.0) * t * t
        r, p = xp.select(x > 400.0, self._split, self._unified, t, x)
        # r solves r'' + 2 zeta w r' + w^2 r = 0 for t > 0.
        q = 2.0 * z * w * p + w * w * r
        return r, p, q

    def _split(self, xp, t, x):
        # Deep overdamped regime: cosh would overflow; use the explicit
        # two-exponential split with strictly negative exponents.
        w = self.omega0
        z = self.zeta
        amp = self.r0
        s = math.sqrt(z * z - 1.0)
        lam_slow = w * (z - s)
        lam_fast = w * (z + s)
        e_slow = xp.exp(-lam_slow * t)
        e_fast = xp.exp(-lam_fast * t)
        r = 0.5 * amp * ((1.0 + z / s) * e_slow + (1.0 - z / s) * e_fast)
        p = -amp * w * w * t * (e_slow - e_fast) / (2.0 * xp.sqrt(x))
        return r, p

    def _unified(self, xp, t, x):
        w = self.omega0
        z = self.zeta
        amp = self.r0
        c, sv = _cs_pair(xp, x)
        decay = xp.exp(-z * w * t)
        r = amp * decay * (c + z * w * t * sv)
        p = -amp * w * w * t * decay * sv
        return r, p

    def _taylor_coefficients(self) -> np.ndarray:
        w = self.omega0
        z = self.zeta
        w2 = w * w * (z * z - 1.0)
        exp_c = np.array([(-z * w) ** k / math.factorial(k) for k in range(_TAYLOR_ORDER)])
        poly_c = np.zeros(_TAYLOR_ORDER)
        for k in range(0, _TAYLOR_ORDER, 2):
            poly_c[k] = w2 ** (k // 2) / math.factorial(k)
        for k in range(1, _TAYLOR_ORDER, 2):
            poly_c[k] = z * w * w2 ** ((k - 1) // 2) / math.factorial(k)
        return self.r0 * np.convolve(exp_c, poly_c)[:_TAYLOR_ORDER]


class OuMeanRevertKernel(Kernel):
    """Mean-reverting observable driven by Ornstein-Uhlenbeck noise.

    r_y(t) = sigma^2 kappa/(1-kappa^2) (e^{-t/tau_e} - kappa e^{-t/(kappa tau_e)}),
    kappa = tau_f/tau_e, rewritten exactly as
    r_y(t) = B e^{-t/tau_e} (1 + (1 - e^{-c t})/(c tau_e)),
    B = sigma^2 kappa/(1+kappa), c = (1-kappa)/(kappa tau_e),
    which has no 0/0 as kappa -> 1 (the expm1-based evaluation is uniformly
    accurate, so no guard threshold is required).
    """

    family = "ou_mean_revert"

    def __init__(self, sigma: float, tau_f: float, tau_e: float):
        super().__init__()
        if sigma <= 0 or tau_f <= 0 or tau_e <= 0:
            raise KernelError("sigma, tau_f, tau_e must be > 0")
        self.params = {"sigma": sigma, "tau_f": tau_f, "tau_e": tau_e}
        self.sigma = sigma
        self.tau_f = tau_f
        self.tau_e = tau_e
        self.kappa = tau_f / tau_e
        self.r0 = sigma * sigma * self.kappa / (1.0 + self.kappa)
        self.q0 = sigma * sigma / ((1.0 + self.kappa) * tau_e * tau_e)
        self.tau_slow = max(tau_f, tau_e)
        self.tau_fast = min(tau_f, tau_e)
        self.shape = {"kappa": self.kappa}

    def _rpq(self, t, xp=_Floats):
        te = self.tau_e
        kappa = self.kappa
        big = self.r0
        if abs(1.0 - kappa) > 1e-3:
            # Plain bi-exponential; no cancellation away from kappa = 1 and
            # no overflow risk (the stable form's expm1 grows for kappa > 1).
            coef = self.sigma**2 * kappa / (1.0 - kappa * kappa)
            l1 = 1.0 / te
            l2 = 1.0 / self.tau_f
            e1 = xp.exp(-l1 * t)
            e2 = xp.exp(-l2 * t)
            r = coef * (e1 - kappa * e2)
            p = coef * (-l1 * e1 + kappa * l2 * e2)
            rpp = coef * (l1 * l1 * e1 - kappa * l2 * l2 * e2)
            return r, p, -rpp
        c = (1.0 - kappa) / (kappa * te)
        decay = xp.exp(-t / te)
        ct = c * t
        g_extra = (-xp.expm1(-ct) / (c * te)) if c != 0.0 else t / te
        g = 1.0 + g_extra
        gp = xp.exp(-ct) / te
        gpp = -c * gp
        r = big * decay * g
        p = big * decay * (gp - g / te)
        rpp = big * decay * (gpp - 2.0 * gp / te + g / (te * te))
        return r, p, -rpp

    def _taylor_coefficients(self) -> np.ndarray:
        te = self.tau_e
        c = (1.0 - self.kappa) / (self.kappa * te)
        exp_c = np.array([(-1.0 / te) ** k / math.factorial(k) for k in range(_TAYLOR_ORDER)])
        g_c = np.zeros(_TAYLOR_ORDER)
        g_c[0] = 1.0
        for k in range(1, _TAYLOR_ORDER):
            g_c[k] = (-1.0) ** (k + 1) * c ** (k - 1) / (math.factorial(k) * te)
        return self.r0 * np.convolve(exp_c, g_c)[:_TAYLOR_ORDER]


class RationalQuadraticKernel(Kernel):
    """r(t) = sigma^2 (1 + t^2/(2 alpha tau^2))^{-alpha}; power-law tail t^{-2 alpha}."""

    family = "rational_quadratic"

    def __init__(self, sigma: float, tau: float, alpha_shape: float):
        super().__init__()
        if sigma <= 0 or tau <= 0 or alpha_shape <= 0:
            raise KernelError("sigma, tau, alpha_shape must be > 0")
        self.params = {"sigma": sigma, "tau": tau, "alpha_shape": alpha_shape}
        self.sigma = sigma
        self.tau = tau
        self.alpha_shape = alpha_shape
        self.r0 = sigma * sigma
        self.q0 = sigma * sigma / (tau * tau)
        self.tau_slow = tau
        self.tau_fast = tau
        self.shape = {"alpha_shape": alpha_shape}

    def _rpq(self, t, xp=_Floats):
        a = self.alpha_shape
        tau2 = self.tau * self.tau
        s2 = self.sigma * self.sigma
        base = 1.0 + t * t / (2.0 * a * tau2)
        pw = xp.pow(base, -a)
        r = s2 * pw
        # r' = -sigma^2 (t/tau^2) base^{-a-1}
        p = -s2 * (t / tau2) * pw / base
        # r'' = -sigma^2/tau^2 base^{-a-2} (base - (a+1) t^2/(a tau^2))
        rpp = -s2 / tau2 * pw / (base * base) * (base - (a + 1.0) * t * t / (a * tau2))
        return r, p, -rpp

    def _taylor_coefficients(self) -> np.ndarray:
        a = self.alpha_shape
        coeffs = np.zeros(_TAYLOR_ORDER)
        rising = 1.0
        for k in range(_TAYLOR_ORDER // 2 + 1):
            if 2 * k >= _TAYLOR_ORDER:
                break
            coeffs[2 * k] = (
                self.r0 * (-1.0) ** k * rising
                / (math.factorial(k) * (2.0 * a * self.tau**2) ** k)
            )
            rising *= a + k
        return coeffs


class SquaredExponentialKernel(Kernel):
    """r(t) = sigma^2 exp(-t^2/(2 tau^2)); the alpha -> infinity limit of RQ."""

    family = "squared_exponential"

    def __init__(self, sigma: float, tau: float):
        super().__init__()
        if sigma <= 0 or tau <= 0:
            raise KernelError("sigma, tau must be > 0")
        self.params = {"sigma": sigma, "tau": tau}
        self.sigma = sigma
        self.tau = tau
        self.r0 = sigma * sigma
        self.q0 = sigma * sigma / (tau * tau)
        self.tau_slow = tau
        self.tau_fast = tau
        self.shape = {}

    def _rpq(self, t, xp=_Floats):
        tau2 = self.tau * self.tau
        r = self.r0 * xp.exp(-0.5 * t * t / tau2)
        p = -r * t / tau2
        rpp = r * (t * t / (tau2 * tau2) - 1.0 / tau2)
        return r, p, -rpp

    def _taylor_coefficients(self) -> np.ndarray:
        coeffs = np.zeros(_TAYLOR_ORDER)
        for k in range(_TAYLOR_ORDER // 2 + 1):
            if 2 * k >= _TAYLOR_ORDER:
                break
            coeffs[2 * k] = self.r0 * (-0.5 / self.tau**2) ** k / math.factorial(k)
        return coeffs


def make_sdho(omega0: float, zeta: float, theta: float) -> Kernel:
    """Damped harmonic oscillator driven by white noise at temperature theta."""
    return SdhoKernel(omega0, zeta, theta)


def make_ou_mean_revert(sigma: float, tau_f: float, tau_e: float) -> Kernel:
    """Mean-reverting observable (timescale tau_e) of OU noise (timescale tau_f)."""
    return OuMeanRevertKernel(sigma, tau_f, tau_e)


def make_rational_quadratic(sigma: float, tau: float, alpha_shape: float) -> Kernel:
    return RationalQuadraticKernel(sigma, tau, alpha_shape)


def make_squared_exponential(sigma: float, tau: float) -> Kernel:
    return SquaredExponentialKernel(sigma, tau)


def map_ou_to_sdho(kernel: OuMeanRevertKernel) -> Kernel:
    """The overdamped oscillator with the identical bi-exponential correlation.

    The decay rates {1/tau_e, 1/tau_f} fix omega0 = 1/sqrt(tau_e tau_f) and
    zeta = (tau_e + tau_f)/(2 sqrt(tau_e tau_f)) >= 1; matching r(0) fixes theta.
    """
    if not isinstance(kernel, OuMeanRevertKernel):
        raise KernelError("mapping defined for ou_mean_revert kernels only")
    te, tf = kernel.tau_e, kernel.tau_f
    omega0 = 1.0 / math.sqrt(te * tf)
    zeta = (te + tf) / (2.0 * math.sqrt(te * tf))
    theta = kernel.r0 * omega0 * omega0
    return SdhoKernel(omega0, zeta, theta)


def default_lag_grid(kernel: Kernel) -> np.ndarray:
    """512 log-spaced lags on [1e-6, 20] * tau_slow (validity-check default)."""
    return np.geomspace(1e-6 * kernel.tau_slow, 20.0 * kernel.tau_slow, 512)


@dataclass(frozen=True)
class ValidityReport:
    """Per-check outcome of the kernel validity gate."""

    checks: dict

    @property
    def all_passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def passed(self, name: str) -> bool:
        return self.checks[name][0]


def check_validity(kernel) -> ValidityReport:
    """Numeric validity gate for a kernel, or any stand-in with its attributes
    and its ``eval`` and ``eval_array`` methods.

    Verifies the structural invariants (positive r0/q0, strict boundedness,
    decorrelation, vanishing derivative at the origin), the short-lag
    condition for finite crossing-count variance (integrability of
    (q0 - q(t))/t near 0), and the weighted-tail condition for the
    asymptotic variance rate (finiteness of the integral of
    t(|r| + |r'| + |r''|), assessed by tail-slope extrapolation).
    """
    tau = kernel.tau_slow
    r0 = kernel.r0
    q0 = kernel.q0
    grid = default_lag_grid(kernel)
    eps = 0.1 * tau
    checks: dict = {}

    checks["positive_moments"] = (r0 > 0.0 and q0 > 0.0, {"r0": r0, "q0": q0})

    r_vals = kernel.eval_array(grid).r
    max_ratio = float(np.max(np.abs(r_vals)) / r0) if r0 > 0 else math.inf
    checks["bounded"] = (max_ratio < 1.0, {"max |r|/r0": max_ratio})

    decay = abs(kernel.eval(10.0 * tau).r) / r0 if r0 > 0 else math.inf
    checks["decay"] = (decay < 1e-3, {"|r(10 tau)|/r0": decay})

    p_small = abs(kernel.eval(1e-8 * tau).p)
    origin_scale = max(q0 * 1e-8 * tau * 10.0, 1e-300)
    checks["derivative_vanishes_at_origin"] = (p_small <= max(origin_scale, 1e-10 * math.sqrt(max(r0 * q0, 1e-300))), {"|p(1e-8 tau)|": p_small})

    # Short-lag condition: (q0 - q(t))/t integrable on (0, eps].
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10 * max(q0, 1.0))
    try:
        def geman_integrand(ts):
            d = kernel.eval_array(ts)
            return ((q0 - d.q) / d.t).tolist()

        geman = integrate_finite(geman_integrand, 0.0, eps, spec, open_left=1e-7 * tau)
        checks["short_lag_integrable"] = (geman.converged, {"value": geman.value, "error": geman.error})
    except Exception as exc:  # noqa: BLE001 - report, never raise
        checks["short_lag_integrable"] = (False, {"exception": repr(exc)})

    # Weighted tail: slope of t(|r|+|r'|+|r''|) at the far end of the grid.
    def weighted(t: float) -> float:
        d = kernel.eval(t)
        return t * (abs(d.r) + abs(d.p) + abs(d.q))

    w1 = weighted(15.0 * tau)
    w2 = weighted(20.0 * tau)
    scale = max(r0 * tau, 1e-300)
    if w2 < 1e-12 * scale:
        tail_ok, slope = True, None
    elif w1 <= 0.0 or w2 <= 0.0:
        tail_ok, slope = True, None
    else:
        slope = math.log(w2 / w1) / math.log(20.0 / 15.0)
        tail_ok = slope < -1.05
    checks["weighted_tail_integrable"] = (tail_ok, {"tail slope": slope, "w(20 tau)": w2})

    return ValidityReport(checks=checks)
