"""
levelcross.crossings
====================

Exact level-crossing statistics for smooth stationary Gaussian processes:
mean count/rate, finite-horizon variance, asymptotic variance rate, and
Fano factor, for upcrossings, downcrossings, and total crossings of an
arbitrary level u.

The mean is the classical closed form depending only on r(0) and -r''(0).
The variance reduces to a single lag integral of an "excess" integrand --
the amount by which the two-point crossing intensity exceeds the
independent product -- which this module evaluates in closed form through
an erf/Owen's-T bracket parametrized by four lag-dependent quantities
(alpha, beta, gamma, delta).

Where each piece comes from:

* ``erf`` and ``owens_t`` are the library functions re-exported by
  :mod:`levelcross.special` (``math.erf``, ``scipy.special.owens_t``);
* ``_bracket`` is the only copy of the erf/Owen's-T bracket, for up- and
  total crossings; the Monte Carlo module's theorem closed forms divide it
  by sqrt(alpha beta);
* ``integrand_up`` and ``integrand_total`` share one body; the zero-level
  arctan integrands are kept apart as an independent reference;
* ``_assemble`` is the only variance-assembly path (validity gate,
  breakpoints, mean + 2 int I, clamping) behind ``variance_count``,
  ``variance_rate_asymptotic``, ``fano`` and ``zero_level_stats``;
* the quadrature is :mod:`levelcross.quadrature`, the validity gate
  :func:`levelcross.kernels.check_validity`.

Three numerical regimes of the integrand are handled explicitly:

* short lags (t < 0.1 series_scale): the denominators of alpha and beta are
  0/0; they are evaluated from exact polynomial forms built out of the
  kernel's one-sided Taylor coefficients, where the leading cancellations
  happen exactly in coefficient space;
* ordinary lags: direct closed-form evaluation, with the potentially
  overflowing exp*erf product rewritten with strictly non-positive
  exponents;
* weak correlation (all of |r|/r0, |q|/q0, |p|/sqrt(r0 q0) below 1e-4):
  the bracket cancels against the product term catastrophically in double
  precision, so the integrand switches to a third-order expansion in the
  lag-t correlations, whose relative error is at most of order
  (correlation level)^2 even where the excess itself is second order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import Kernel, check_validity
from .quadrature import QuadratureSpec, integrate_finite, integrate_semi_infinite
from .special import erf, owens_t

__all__ = [
    "CrossingMode",
    "CrossingParams",
    "CrossingStats",
    "DegenerateLagError",
    "NegativeVarianceError",
    "ValidityError",
    "abg_params",
    "mean_count",
    "mean_rate",
    "integrand_up",
    "integrand_total",
    "variance_count",
    "variance_rate_asymptotic",
    "fano",
    "zero_level_stats",
    "dimensionless_fano",
]

_SQRT_PI = math.sqrt(math.pi)
_SERIES_FRACTION = 0.1       # series path below this multiple of series_scale
_WEAK_CORRELATION = 1e-4     # expansion path below this correlation level


class DegenerateLagError(ArithmeticError):
    """Lag too small (or kernel degenerate): r0^2 - r^2 or a denominator lost."""


class NegativeVarianceError(ArithmeticError):
    """Computed variance negative far beyond the quadrature error (a bug signal)."""


class ValidityError(ValueError):
    """Kernel failed the validity gate for the requested statistic."""


class CrossingMode(enum.Enum):
    UP = "up"
    DOWN = "down"
    TOTAL = "total"


@dataclass(frozen=True)
class CrossingParams:
    """The lag-dependent quantities of the closed-form excess integrand.

    alpha, beta  quadratic-form coefficients (time^2/X^2), strictly positive
    gamma        sqrt(2) p u / (r + r0) (velocity shift induced by the level)
    delta        1/(r + r0)
    det          determinant of the 4x4 joint covariance of (X,X,Xdot,Xdot)
    rr_diff      r0^2 - r^2 (strictly positive for t > 0)
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    det: float
    rr_diff: float
    t: float
    u: float


@dataclass(frozen=True)
class CrossingStats:
    """A computed crossing statistic bundle.

    ``horizon`` is None for asymptotic (per-unit-time) results, in which
    case ``mean`` and ``variance`` are rates; ``fano`` is populated only
    for asymptotic results (the finite-horizon ratio is not the Fano
    factor, which is defined as a long-time limit).
    """

    mode: CrossingMode
    u: float
    mean: float
    variance: float
    fano: float | None
    horizon: float | None
    quad_error: float
    quad_converged: bool
    evaluations: int
    warnings: tuple[str, ...] = ()


def _mode(mode) -> CrossingMode:
    if isinstance(mode, CrossingMode):
        return mode
    return CrossingMode(str(mode).lower())


# -- parameter evaluation -----------------------------------------------------

def _abg_polys(kernel: Kernel):
    """Cache polynomial coefficient arrays for the short-lag series path.

    From r(t) = sum a_k t^k builds the polynomials for p, r -+ r0 and the
    two denominators D_alpha = p^2 + (q - q0)(r + r0) and
    D_beta = p^2 + (q + q0)(r - r0), whose low-order coefficients cancel
    exactly (coefficient arithmetic reproduces the cancellation without
    loss, unlike evaluating the differences at small t).
    """
    cached = getattr(kernel, "_abg_poly_cache", None)
    if cached is not None:
        return cached
    a = kernel.taylor
    n = len(a)
    p_c = np.zeros(n)
    p_c[: n - 1] = [(k + 1) * a[k + 1] for k in range(n - 1)]
    q_c = np.zeros(n)
    q_c[: n - 2] = [-(k + 2) * (k + 1) * a[k + 2] for k in range(n - 2)]
    rm_c = a.copy()
    rm_c[0] = 0.0  # r - r0
    rm_c[1] = 0.0
    rp_c = a.copy()
    rp_c[0] = 2.0 * a[0]  # r + r0
    rp_c[1] = 0.0
    qm_c = q_c.copy()
    qm_c[0] = 0.0  # q - q0
    qp_c = q_c.copy()
    qp_c[0] = 2.0 * q_c[0]  # q + q0
    p2 = np.convolve(p_c, p_c)[:n]
    d_alpha = p2 + np.convolve(qm_c, rp_c)[:n]
    d_beta = p2 + np.convolve(qp_c, rm_c)[:n]
    cached = (p_c, rm_c, rp_c, d_alpha, d_beta)
    kernel._abg_poly_cache = cached
    return cached


def _horner(coeffs: np.ndarray, t: float) -> float:
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


def abg_params(kernel: Kernel, u: float, t: float) -> CrossingParams:
    """The closed-form quantities (alpha, beta, gamma, delta, det) at (t, u)."""
    if t <= 0.0:
        raise DegenerateLagError(f"lag must be > 0 (got {t})")
    r0 = kernel.r0
    q0 = kernel.q0
    if t < _SERIES_FRACTION * kernel.series_scale:
        p_c, rm_c, rp_c, da_c, db_c = _abg_polys(kernel)
        p = _horner(p_c, t)
        rm = _horner(rm_c, t)       # r - r0 < 0
        rp = _horner(rp_c, t)       # r + r0
        d_alpha = _horner(da_c, t)
        d_beta = _horner(db_c, t)
    else:
        d = kernel.eval(t)
        p = d.p
        rm = d.r - r0
        rp = d.r + r0
        d_alpha = p * p + (d.q - q0) * rp
        d_beta = p * p + (d.q + q0) * rm
    rr_diff = -rm * rp              # r0^2 - r^2
    if rr_diff <= 0.0 or not math.isfinite(rr_diff):
        raise DegenerateLagError(f"r0^2 - r^2 = {rr_diff} at t={t}: lag degenerate")
    if d_alpha >= 0.0 or d_beta >= 0.0:
        raise DegenerateLagError(
            f"denominator sign lost at t={t} (D_alpha={d_alpha}, D_beta={d_beta})"
        )
    alpha = -rp / (2.0 * d_alpha)
    beta = rm / (2.0 * d_beta)
    delta = 1.0 / rp
    gamma = math.sqrt(2.0) * p * u / rp
    det = d_alpha * d_beta
    if not (alpha > 0.0 and beta > 0.0 and delta > 0.0):
        raise DegenerateLagError(f"parameter positivity lost at t={t}")
    return CrossingParams(alpha, beta, gamma, delta, det, rr_diff, t, float(u))


# -- closed-form integrands ---------------------------------------------------

def _bracket(alpha: float, beta: float, gamma: float, total: bool) -> float:
    """The erf/Owen's-T bracket of the excess integrand.

    Upcrossings by default; ``total`` gives the total-crossing bracket (note
    its T - 1/8 structure).  Divided by sqrt(alpha beta) it is the closed
    form of the canonical wedge (full-plane) integral.  Written with
    non-positive exponents only: the exp(alpha^2 gamma^2/(a+b)) factor of
    the erf term is absorbed so nothing overflows for large gamma.
    """
    apb = alpha + beta
    ab = alpha * beta
    sab = math.sqrt(ab)
    h = gamma * math.sqrt(2.0 * ab / apb)
    erf_term = (
        math.exp(-alpha * gamma * gamma)
        + _SQRT_PI * gamma * math.sqrt(apb) * math.exp(-0.5 * h * h)
        * erf(alpha * gamma / math.sqrt(apb))
    )
    coef = (alpha - beta - 2.0 * ab * gamma * gamma) / ab
    t_val = float(owens_t(h, math.sqrt(alpha / beta)))
    if total:
        return 2.0 * erf_term / sab + 4.0 * math.pi * coef * (t_val - 0.125)
    return erf_term / (2.0 * sab) + math.pi * coef * t_val


def _weak_correlation_level(kernel: Kernel, d) -> float:
    scale = math.sqrt(kernel.r0 * kernel.q0)
    return max(abs(d.r) / kernel.r0, abs(d.q) / kernel.q0, abs(d.p) / scale)


def _poly2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two bivariate polynomials stored as coefficient arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0.0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def _linearized(kernel: Kernel, u: float, d, total: bool) -> float:
    """Weak-correlation expansion of the excess integrand, third order in
    the lag-t correlations (r, p, q).

    Writes the two-point joint density as the independent product times
    exp(eta), where eta collects the inverse-covariance correction
    (Neumann series in the correlation block, truncated after the cubic
    term) and the log-determinant correction (trace series, same order).
    exp(eta) - 1 is then expanded through eta^3 and integrated against the
    velocity weight using one-sided Gaussian moments.  The truncation
    error is O(level^4) absolute, hence at most O(level^2) relative even
    at the zero-level total-crossing point where the excess itself is
    second order; below the 1e-4 switch level that is < 1e-8 relative.
    """
    r0 = kernel.r0
    q0 = kernel.q0
    r, p, q = d.r, d.p, d.q
    d_inv = np.diag([1.0 / r0, 1.0 / r0, 1.0 / q0, 1.0 / q0])
    corr = np.array([
        [0.0, r, 0.0, p],
        [r, 0.0, -p, 0.0],
        [0.0, -p, 0.0, q],
        [p, 0.0, q, 0.0],
    ])
    m = d_inv @ corr
    a1 = m @ d_inv                      # D^-1 E D^-1
    a2 = m @ a1
    a3 = m @ a2
    dq = -a1 + a2 - a3                  # inv(D + E) - D^-1, through cubic order
    tr = np.trace
    log_det_diff = tr(m) - 0.5 * tr(m @ m) + tr(m @ m @ m) / 3.0

    # eta as a quadratic polynomial in (y1, y2) at fixed x1 = x2 = u.
    a_vec = np.array([u, u, 0.0, 0.0])
    lin = -(dq @ a_vec)
    eta = np.zeros((3, 3))
    eta[0, 0] = -0.5 * float(a_vec @ dq @ a_vec) - 0.5 * log_det_diff
    eta[1, 0] = lin[2]
    eta[0, 1] = lin[3]
    eta[2, 0] = -0.5 * dq[2, 2]
    eta[0, 2] = -0.5 * dq[3, 3]
    eta[1, 1] = -dq[2, 3]

    # exp(eta) - 1 through eta^3, still a polynomial in (y1, y2).
    eta2 = _poly2_mul(eta, eta)
    full = np.zeros((7, 7))
    full[:3, :3] += eta
    full[:5, :5] += 0.5 * eta2
    full[:7, :7] += _poly2_mul(eta2, eta) / 6.0

    # One-sided Gaussian moments g[n] = int_0^inf y^n N(0, q0) dy.
    g = np.zeros(9)
    g[0] = 0.5
    g[1] = math.sqrt(q0 / (2.0 * math.pi))
    for n in range(2, 9):
        g[n] = (n - 1) * q0 * g[n - 2]

    fpx2 = math.exp(-u * u / r0) / (2.0 * math.pi * r0)
    acc = 0.0
    for i in range(7):
        for j in range(7):
            c = full[i, j]
            if c == 0.0:
                continue
            if total:
                if i % 2 == 0 and j % 2 == 0:
                    acc += c * 4.0 * g[i + 1] * g[j + 1]
            else:
                acc += c * g[i + 1] * g[j + 1]
    return fpx2 * acc


def _excess(kernel: Kernel, u: float, t: float, total: bool) -> float:
    """The body of ``integrand_up`` (``total`` False) and ``integrand_total``."""
    if t >= _SERIES_FRACTION * kernel.series_scale:
        d = kernel.eval(t)
        if _weak_correlation_level(kernel, d) < _WEAK_CORRELATION:
            return _linearized(kernel, u, d, total)
    prm = abg_params(kernel, u, t)
    pref = math.exp(-prm.delta * u * u) / (4.0 * math.pi**2 * math.sqrt(prm.rr_diff))
    product = kernel.q0 / kernel.r0 * math.exp(-u * u / kernel.r0) / (
        math.pi**2 if total else 4.0 * math.pi**2
    )
    return pref * _bracket(prm.alpha, prm.beta, prm.gamma, total) - product


def integrand_up(kernel: Kernel, u: float, t: float) -> float:
    """Excess two-point upcrossing intensity at lag t (the variance integrand)."""
    return _excess(kernel, u, t, total=False)


def integrand_total(kernel: Kernel, u: float, t: float) -> float:
    """Excess two-point total-crossing intensity at lag t."""
    return _excess(kernel, u, t, total=True)


def _integrand_zero_up(kernel: Kernel, t: float) -> float:
    """Zero-level upcrossing excess integrand, dedicated arctan form."""
    prm = abg_params(kernel, 0.0, t)
    ab = prm.alpha * prm.beta
    a_ratio = math.sqrt(prm.alpha / prm.beta)
    bracket = 1.0 / math.sqrt(ab) + (prm.alpha - prm.beta) / ab * math.atan(a_ratio)
    return bracket / (8.0 * math.pi**2 * math.sqrt(prm.rr_diff)) - (
        kernel.q0 / kernel.r0 / (4.0 * math.pi**2)
    )


def _integrand_zero_total(kernel: Kernel, t: float) -> float:
    """Zero-level total-crossing excess integrand, dedicated arctan form."""
    prm = abg_params(kernel, 0.0, t)
    ab = prm.alpha * prm.beta
    a_ratio = math.sqrt(prm.alpha / prm.beta)
    bracket = 1.0 / math.sqrt(ab) + (prm.alpha - prm.beta) / ab * math.atan(
        (a_ratio - 1.0) / (a_ratio + 1.0)
    )
    return bracket / (2.0 * math.pi**2 * math.sqrt(prm.rr_diff)) - (
        kernel.q0 / kernel.r0 / math.pi**2
    )


# -- statistics ---------------------------------------------------------------

def mean_rate(kernel: Kernel, u: float, mode=CrossingMode.UP) -> float:
    """Expected crossings per unit time; depends only on r0 and q0."""
    mode = _mode(mode)
    rate = (
        1.0 / (2.0 * math.pi)
        * math.sqrt(kernel.q0 / kernel.r0)
        * math.exp(-u * u / (2.0 * kernel.r0))
    )
    return 2.0 * rate if mode is CrossingMode.TOTAL else rate


def mean_count(kernel: Kernel, u: float, T: float, mode=CrossingMode.UP) -> float:
    """Expected number of crossings in a window of length T."""
    if T <= 0.0:
        raise ValueError(f"horizon must be > 0 (got {T})")
    return T * mean_rate(kernel, u, mode)


def _pick_integrand(kernel: Kernel, u: float, mode: CrossingMode):
    if mode is CrossingMode.TOTAL:
        return lambda t: integrand_total(kernel, u, t)
    return lambda t: integrand_up(kernel, u, t)


def _lag_spec(kernel: Kernel, spec: QuadratureSpec | None) -> QuadratureSpec:
    base = spec or QuadratureSpec()
    return replace(
        base,
        endpoint="open-left",
        open_left_offset=1e-7 * kernel.tau_slow,
        tail=base.tail if spec is not None and base.tail == "cutoff" else kernel.preferred_tail,
        tail_scale=kernel.tau_slow,
    )


def _gate(kernel: Kernel) -> list[str]:
    """Validity gate: the short-lag condition is hard, tail issues are warnings."""
    report = check_validity(kernel)
    if not report.passed("short_lag_integrable") or not report.passed("positive_moments"):
        raise ValidityError(f"kernel fails validity checks: {report.checks}")
    return [
        f"validity check {name!r} not satisfied: {detail}"
        for name, (ok, detail) in report.checks.items()
        if not ok
    ]


def _assemble(
    kernel: Kernel,
    u: float,
    mode: CrossingMode,
    f,
    T: float | None,
    spec: QuadratureSpec | None,
) -> CrossingStats:
    """The one variance-assembly path: mean + 2 int_0^inf f, or for a window
    of length T, mean + 2T int_0^T (1-t/T) f, with breakpoints at multiples
    of tau_slow.  A negative result within 10x the quadrature error is
    clamped to 0 with a warning; beyond that it is a bug signal and raises.
    """
    mean = mean_rate(kernel, u, mode) if T is None else mean_count(kernel, u, T, mode)
    warnings = _gate(kernel)
    inner = _lag_spec(kernel, spec)
    if T is None:
        result = integrate_semi_infinite(f, 0.0, inner)
        scale = 2.0
    else:
        tau = kernel.tau_slow
        breaks = tuple(m * tau for m in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0) if m * tau < T)
        inner = replace(inner, breakpoints=breaks)
        result = integrate_finite(lambda t: (1.0 - t / T) * f(t), 0.0, T, inner)
        scale = 2.0 * T
    raw = mean + scale * result.value
    quad_error = scale * result.error
    if raw < 0.0:
        if raw < -10.0 * max(quad_error, 1e-300):
            raise NegativeVarianceError(
                f"variance {raw} negative beyond 10x quadrature error {quad_error}"
            )
        warnings.append(f"raw variance {raw} clamped to 0 (within quadrature error)")
        raw = 0.0
    return CrossingStats(
        mode=mode, u=float(u), mean=mean, variance=raw,
        fano=raw / mean if T is None and mean > 0 else None,
        horizon=None if T is None else float(T), quad_error=quad_error,
        quad_converged=result.converged, evaluations=result.evaluations,
        warnings=tuple(warnings),
    )


def variance_count(
    kernel: Kernel,
    u: float,
    T: float,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
) -> CrossingStats:
    """Finite-horizon crossing-count variance: mean + 2T int_0^T (1-t/T) I dt."""
    mode = _mode(mode)
    return _assemble(kernel, u, mode, _pick_integrand(kernel, u, mode), T, spec)


def variance_rate_asymptotic(
    kernel: Kernel, u: float, mode=CrossingMode.UP, spec: QuadratureSpec | None = None
) -> CrossingStats:
    """Long-time variance per unit time: mean rate + 2 int_0^inf I dt."""
    mode = _mode(mode)
    return _assemble(kernel, u, mode, _pick_integrand(kernel, u, mode), None, spec)


def fano(
    kernel: Kernel, u: float, mode=CrossingMode.UP, spec: QuadratureSpec | None = None
) -> float | None:
    """Long-time Fano factor: the variance rate over the mean rate (None if
    the mean rate underflows to 0)."""
    return variance_rate_asymptotic(kernel, u, mode, spec).fano


def zero_level_stats(
    kernel: Kernel,
    T: float | None = None,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
) -> CrossingStats:
    """Zero-level statistics through the dedicated arctan-form integrands.

    An independent cross-check path: it never touches erf or Owen's T.
    T=None computes the asymptotic rates, otherwise the finite-T variance.
    """
    mode = _mode(mode)
    zero = _integrand_zero_total if mode is CrossingMode.TOTAL else _integrand_zero_up
    return _assemble(kernel, 0.0, mode, lambda t: zero(kernel, t), T, spec)


def _unit_kernel(family: str, shape: dict) -> Kernel:
    from . import kernels as K

    if family == "sdho":
        return K.make_sdho(1.0, shape["zeta"], 1.0)
    if family == "ou_mean_revert":
        return K.make_ou_mean_revert(1.0, shape["kappa"], 1.0)
    if family == "rational_quadratic":
        return K.make_rational_quadratic(1.0, 1.0, shape["alpha_shape"])
    if family == "squared_exponential":
        return K.make_squared_exponential(1.0, 1.0)
    raise ValueError(f"no dimensionless form for family {family!r}")


def dimensionless_fano(
    family_or_kernel,
    psi: float,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
    shape: dict | None = None,
) -> float:
    """Fano factor as a function of the dimensionless threshold psi = u/sigma.

    Accepts either a kernel (its shape parameters are extracted) or a family
    name plus a shape dict.  The Fano factor is scale-free: this evaluates
    the unit-amplitude, unit-timescale member of the family at u = psi.
    """
    if isinstance(family_or_kernel, Kernel):
        family = family_or_kernel.family
        shape = family_or_kernel.shape
    else:
        family = str(family_or_kernel)
        shape = shape or {}
    unit = _unit_kernel(family, shape)
    return fano(unit, psi * unit.amplitude, mode, spec)
