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
* ``integrand_up`` and ``integrand_total`` share one body, ``_excess``,
  fed by ``_lag``: everything at a lag t that does not depend on the level
  (the kernel evaluation, the weak-correlation test and the level-free part
  of ``abg_params``); the zero-level arctan form, ``_zero_excess`` (the body
  of ``_integrand_zero``), is kept apart as an independent reference, except
  at weak-correlation lags, where it shares ``_linearized``: the arctan form
  there leaves only a roundoff floor, which the tail map would integrate
  over lags up to ~1e16 tau_slow;
* ``_excess``, ``_zero_excess``, ``_bracket`` and ``_linearized`` are each
  written once and take either Python floats (one level at one lag, through
  ``math``) or arrays of levels x lags (``xp=_Arrays``), with the same bits
  in every element (the operations are those of :mod:`levelcross._xp`,
  which the kernels' closed forms use too);
* ``_lags`` is ``_lag`` over the lags of a whole panel, with the same bits:
  one ``Kernel.eval_array`` call for the direct lags, one ``_horner`` pass
  over the four short-lag series polynomials, and ``_lag_params``'
  arithmetic (``_lag_fields``) and checks on arrays;
* ``_lag_integral`` fixes the integration policy of every statistic (open
  left end, breakpoints, tail map, the closed-form linear tail), and
  ``_assemble`` is the only variance-assembly path (validity gate,
  mean + 2 int I, clamping) behind ``variance_count``,
  ``variance_rate_asymptotic``, ``fano`` and ``zero_level_stats``, one
  level and sweep rows alike;
* the quadrature is :mod:`levelcross.quadrature`, the validity gate
  :func:`levelcross.kernels.check_validity`, whose module owns the switch
  lag to the short-lag series (``_SERIES_FRACTION``).

Three numerical regimes of the integrand are handled explicitly:

* short lags (t < 0.1 series_scale): the denominators of alpha and beta are
  0/0; they are evaluated from exact polynomial forms built out of the
  kernel's one-sided Taylor coefficients, where the leading cancellations
  happen exactly in coefficient space;
* ordinary lags: direct closed-form evaluation, with the potentially
  overflowing exp*erf product rewritten with strictly non-positive
  exponents, and r - r0 taken from the kernel (``KernelDerivatives.rm``),
  which forms it without the cancellation of the difference;
* weak correlation (all of |r|/r0, |q|/q0, |p|/sqrt(r0 q0) below 1e-4):
  the bracket cancels against the product term catastrophically in double
  precision, so the integrand switches to a third-order expansion in the
  lag-t correlations, whose relative error is at most of order
  (correlation level)^2 even where the excess itself is second order; it
  is closed form, polynomials in the normalised correlations contracted
  with unit-moment tables built at import.

The long-time integral has a fourth piece, the tail past
t_s = 32 tau_slow.  There each level integrates I - Lin, where
Lin = a r + b q is the expansion's first-order part (``_linear``), and
int_{t_s}^inf Lin joins in closed form (``_linear_tail``, from
``Kernel.tail_integral`` and p(t_s)).  Lin decays like r itself at u != 0:
for a power-law kernel, r ~ t^-2 alpha, the tail map hands the rest an
integrable end point instead of a singularity that GK15 under-resolves
while its error estimate stays small.  For exponential tails Lin is e^-32
small at t_s, and values move by rounding.

The validity gate's outcome and the short-lag series tables are cached on
the kernel, so each is computed once per kernel; a kernel whose series
leaves the float range raises ``KernelError`` there, and one that fails the
gate, or a long-time level whose integral diverges (``_row``),
``ValidityError``.
``variance_rate_asymptotic`` takes one level or a sequence of levels (one
sweep row), and a scalar level is a row of one.  Each level keeps its own
adaptive mesh, so every result equals its single-level call bit for bit,
but the levels are integrated in lockstep (the quadrature's lockstep
driver): each round, one ``_panel`` call gives every level's values at the
lags of every panel that some level asks for and no earlier round gave,
the level-free work as arrays over those lags (``_lags``), then one array
expression per regime.  Round 0 also evaluates the open-left stub panels
that every level asks for one at a time later, so a 9-level row takes a
handful of ``_panel`` calls.  The table of panels lives for that one call
and is never stored on the kernel.  A row of one gives the float path's
value, error and evaluation count for less CPU (2.7 times less on average
over seven kernel families).  The zero-level statistics are rows of one as
well, of the arctan form (``_panel`` takes the per-regime expression):
long-time ones on the tail map (3.0 times less CPU), windows on the
finite range [0, T] with the weight 1 - t/T (about 7 times less).  A row
raises what its failing round raises; there is no fallback.

The float path (``_lag``, one integrand call per lag, ``_float_stats``) has
one production use left: ``variance_count``.  Otherwise it stays the
reference the rows are tested against.  Moving ``variance_count`` onto the
driver, like a faster float ``_horner``, waits for a benchmark that no
longer couples throughput and memory (ROADMAP item 1): ``perfbench``'s
worker keeps every operation until it reads the peak RSS, so a faster
``stats_mix`` reads a higher ``peak_rss_mb``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _xp
from .kernels import _SERIES_FRACTION, Kernel, KernelDerivatives, KernelError, check_validity
from .quadrature import (QuadratureResult, QuadratureSpec, integrate_finite, integrate_finite_rows,
                         integrate_semi_infinite_rows, pointwise)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

def _abg_polys(kernel: Kernel) -> np.ndarray:
    """Cache polynomial coefficient rows for the short-lag series path.

    From r(t) = sum a_k t^k builds the polynomials for p, r - r0 and the
    two denominators D_alpha = p^2 + (q - q0)(r + r0) and
    D_beta = p^2 + (q + q0)(r - r0), whose low-order coefficients cancel
    exactly (coefficient arithmetic reproduces the cancellation without
    loss, unlike evaluating the differences at small t; which orders cancel
    depends on the family, and their rounding residue is set to 0).  The
    four rows share one array, so the per-kernel cache stays small.  A
    kernel whose series or rows leave the float range raises ``KernelError``.
    """
    cached = getattr(kernel, "_abg_poly_cache", None)
    if cached is None:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            try:
                cached = _series_rows(kernel.taylor)
            except ArithmeticError:  # a power of an extreme rate overflows, or underflows to 0
                cached = np.array([math.nan])
        if not np.isfinite(cached).all():
            raise KernelError(f"{kernel!r}: its short-lag series leaves the float range")
        kernel._abg_poly_cache = cached
    return cached


def _series_rows(a: np.ndarray) -> np.ndarray:
    """``_abg_polys``' four rows from the series coefficients a."""
    n = len(a)
    p_c = np.zeros(n)
    p_c[: n - 1] = [(k + 1) * a[k + 1] for k in range(n - 1)]
    q_c = np.zeros(n)
    q_c[: n - 2] = [-(k + 2) * (k + 1) * a[k + 2] for k in range(n - 2)]
    rm_c = a.copy()
    rm_c[0] = 0.0  # r - r0
    rm_c[1] = 0.0
    rp_c = rm_c.copy()
    rp_c[0] = 2.0 * a[0]  # r + r0
    qm_c = q_c.copy()
    qm_c[0] = 0.0  # q - q0
    qp_c = q_c.copy()
    qp_c[0] = 2.0 * q_c[0]  # q + q0

    def denominator(q_c, r_c):
        # Zero the rounding residue of exact cancellations: coefficients no
        # larger than 4 n eps times the summed magnitudes that formed them.
        exact = np.convolve(p_c, p_c)[:n] + np.convolve(q_c, r_c)[:n]
        bound = np.convolve(abs(p_c), abs(p_c))[:n] + np.convolve(abs(q_c), abs(r_c))[:n]
        return np.where(abs(exact) <= 4.0 * n * np.finfo(float).eps * bound, 0.0, exact)

    return np.array([p_c, rm_c, denominator(qm_c, rp_c), denominator(qp_c, rm_c)])


def _horner(coeffs: np.ndarray, t: float) -> float:
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * t + c
    return acc


def _lag_params(kernel: Kernel, t: float, d: KernelDerivatives | None = None) -> tuple:
    """The level-free part of ``abg_params`` at lag t: (alpha, beta, delta,
    det, r0^2 - r^2, sqrt(2) p, r + r0); gamma is (sqrt(2) p) u / (r + r0).

    Every ``DegenerateLagError`` check lives here and, on arrays, in
    ``_lags``, since none depends on u; ``_lag_error`` words them.
    """
    r0 = kernel.r0
    q0 = kernel.q0
    if t < _SERIES_FRACTION * kernel.series_scale:
        p_c, rm_c, da_c, db_c = _abg_polys(kernel)
        p = _horner(p_c, t)
        rm = _horner(rm_c, t)       # r - r0 < 0
        rp = rm + 2.0 * r0          # r + r0
        d_alpha = _horner(da_c, t)
        d_beta = _horner(db_c, t)
    else:
        if d is None:
            d = kernel.eval(t)
        p = d.p
        rm = d.rm
        rp = d.r + r0
        d_alpha = p * p + (d.q - q0) * rp
        d_beta = p * p + (d.q + q0) * rm
    rr_diff = -rm * rp              # r0^2 - r^2
    if t <= 0.0 or not 0.0 < rr_diff < math.inf or d_alpha >= 0.0 or d_beta >= 0.0:
        raise _lag_error(t, rr_diff, d_alpha, d_beta)
    lag = _lag_fields(p, rm, rp, d_alpha, d_beta)
    if not (lag[0] > 0.0 and lag[1] > 0.0 and lag[2] > 0.0):
        raise _lag_error(t, rr_diff, d_alpha, d_beta)
    return lag


def _lag_error(t: float, rr_diff: float, d_alpha: float, d_beta: float) -> DegenerateLagError:
    """The error of the first of ``_lag_params``' checks that lag t fails,
    given that it fails one: t > 0, 0 < r0^2 - r^2 < inf, D_alpha and D_beta
    < 0, then alpha, beta and delta > 0."""
    if t <= 0.0:
        message = f"lag must be > 0 (got {t})"
    elif not 0.0 < rr_diff < math.inf:
        message = f"r0^2 - r^2 = {rr_diff} at t={t}: lag degenerate"
    elif d_alpha >= 0.0 or d_beta >= 0.0:
        message = f"denominator sign lost at t={t} (D_alpha={d_alpha}, D_beta={d_beta})"
    else:
        message = f"parameter positivity lost at t={t}"
    return DegenerateLagError(message)


def _lag_fields(p, rm, rp, d_alpha, d_beta) -> tuple:
    """``_lag_params``' tuple from p, r - r0, r + r0 and the denominators
    D_alpha, D_beta: floats, or arrays with the same bits in every element."""
    return (-rp / (2.0 * d_alpha), rm / (2.0 * d_beta), 1.0 / rp, d_alpha * d_beta,
            -rm * rp, math.sqrt(2.0) * p, rp)


def abg_params(kernel: Kernel, u: float, t: float) -> CrossingParams:
    """The closed-form quantities (alpha, beta, gamma, delta, det) at (t, u)."""
    alpha, beta, delta, det, rr_diff, sqrt2_p, rp = _lag_params(kernel, t)
    return CrossingParams(alpha, beta, sqrt2_p * u / rp, delta, det, rr_diff, t, float(u))


def _lag(kernel: Kernel, t: float):
    """All the excess integrand's work at lag t that does not depend on u:
    the ``KernelDerivatives`` in the weak-correlation regime, otherwise the
    ``_lag_params`` tuple."""
    d = None
    if t >= _SERIES_FRACTION * kernel.series_scale:
        d = kernel.eval(t)
        r0, q0 = kernel.r0, kernel.q0
        if max(abs(d.r) / r0, abs(d.q) / q0, abs(d.p) / math.sqrt(r0 * q0)) < _WEAK_CORRELATION:
            return d
    return _lag_params(kernel, t, d)


def _lags(kernel: Kernel, t: np.ndarray) -> tuple[list, KernelDerivatives | None]:
    """``_lag`` over an array of lags, with the same bits, as (columns, lag)
    pairs: the ``KernelDerivatives`` of the weak-correlation lags and the
    ``_lag_params`` fields of the others, as arrays in node order; and the
    ``KernelDerivatives`` of every direct lag (None if there is none).  If
    a lag fails one of ``_lag_params``' checks, it raises ``_lag_params``'
    error at the first such lag."""
    r0, q0 = kernel.r0, kernel.q0
    series = t < _SERIES_FRACTION * kernel.series_scale
    n_series = np.count_nonzero(series)
    # Column selectors: a mask, or every column when one regime holds them all.
    direct = slice(None) if n_series == 0 else ~series
    series = slice(None) if n_series == len(t) else series
    values = np.empty((5, len(t)))  # p, r - r0, r + r0, D_alpha, D_beta
    strong, groups, d = slice(None), [], None
    if n_series:
        # _horner on the four polynomials at once, laid end to end in flat
        # arrays (numpy costs less per call on them than on (4, lags) ones).
        ts = t[series]
        p, rm, d_alpha, d_beta = _horner(np.repeat(_abg_polys(kernel).T, len(ts), axis=1),
                                         np.concatenate([ts] * 4)).reshape(4, -1)
        values[:, series] = p, rm, rm + 2.0 * r0, d_alpha, d_beta
    if n_series < len(t):
        d = kernel.eval_array(t[direct])
        weak = np.maximum(np.maximum(abs(d.r) / r0, abs(d.q) / q0),
                          abs(d.p) / math.sqrt(r0 * q0)) < _WEAK_CORRELATION
        rm, rp, pp = d.rm, d.r + r0, d.p * d.p
        values[:, direct] = d.p, rm, rp, pp + (d.q - q0) * rp, pp + (d.q + q0) * rm
        if np.count_nonzero(weak):
            cols = np.zeros(len(t), dtype=bool)
            cols[direct] = weak
            groups.append((cols, KernelDerivatives(*(field[weak] for field in d))))
            strong = ~cols
    p, rm, rp, d_alpha, d_beta = values[:, strong]
    if not p.size:
        return groups, d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked below
        lag = _lag_fields(p, rm, rp, d_alpha, d_beta)
    alpha, beta, delta, _, rr_diff, _, _ = lag
    # Every check of _lag_params at once; a NaN fails them too.
    positive = np.array([t[strong], rr_diff, -d_alpha, -d_beta, alpha, beta, delta])
    if not (positive.min() > 0.0 and rr_diff.max() < math.inf):
        first = np.flatnonzero(~((positive > 0.0).all(axis=0) & (rr_diff < math.inf)))[0]
        raise _lag_error(*(float(v[first]) for v in (t[strong], rr_diff, d_alpha, d_beta)))
    return groups + [(strong, lag)], d


# -- closed-form integrands ---------------------------------------------------

class _Floats(_xp._Floats):
    """The elementary operations of the excess formula on Python floats: one
    level.  Owen's T is this module's name at call time, on both paths."""

    @staticmethod
    def owens_t(h, a):
        return float(owens_t(h, a))


class _Arrays(_xp._Arrays):
    """The same operations on (levels x lags) arrays: many levels, with the
    float path's bits in every element (``owens_t`` is one ufunc)."""

    @staticmethod
    def owens_t(h, a):
        return owens_t(h, a)


def _bracket(alpha, beta, gamma, total: bool, xp=_Floats):
    """The erf/Owen's-T bracket of the excess integrand.

    Upcrossings by default; ``total`` gives the total-crossing bracket (note
    its T - 1/8 structure).  Divided by sqrt(alpha beta) it is the closed
    form of the canonical wedge (full-plane) integral.  Written with
    non-positive exponents only: the exp(alpha^2 gamma^2/(a+b)) factor of
    the erf term is absorbed so nothing overflows for large gamma.  Takes
    floats, or arrays with ``xp=_Arrays``.
    """
    apb = alpha + beta
    ab = alpha * beta
    sab = xp.sqrt(ab)
    h = gamma * xp.sqrt(2.0 * ab / apb)
    erf_term = (
        xp.exp(-alpha * gamma * gamma)
        + _SQRT_PI * gamma * xp.sqrt(apb) * xp.exp(-0.5 * h * h)
        * xp.erf(alpha * gamma / xp.sqrt(apb))
    )
    coef = (alpha - beta - 2.0 * ab * gamma * gamma) / ab
    t_val = xp.owens_t(h, xp.sqrt(alpha / beta))
    if total:
        return 2.0 * erf_term / sab + 4.0 * math.pi * coef * (t_val - 0.125)
    return erf_term / (2.0 * sab) + math.pi * coef * t_val


# Basis of eta in unit velocities z = y/sqrt(q0): 1, z1 - z2, z1^2 + z2^2
# and z1 z2, each as (coefficient, power of z1, power of z2) terms.
_WEAK_BASIS = (((1.0, 0, 0),), ((1.0, 1, 0), (-1.0, 0, 1)), ((1.0, 2, 0), (1.0, 0, 2)), ((1.0, 1, 1),))


def _weak_moments(order: int, total: bool) -> np.ndarray:
    """Unit moments M[k1..k_order] = int b_k1 ... b_k_order w dz1 dz2, with
    w = z1 z2 N(z1) N(z2) on z > 0 (up) or |z1 z2| N(z1) N(z2) (total)."""
    g = [0.5, 1.0 / math.sqrt(2.0 * math.pi)]     # int_0^inf z^n N(z) dz
    for n in range(2, 8):
        g.append((n - 1) * g[n - 2])
    table = np.zeros((len(_WEAK_BASIS),) * order)
    for ks in itertools.product(range(len(_WEAK_BASIS)), repeat=order):
        for terms in itertools.product(*(_WEAK_BASIS[k] for k in ks)):
            i, j = sum(t[1] for t in terms), sum(t[2] for t in terms)
            weight = 4.0 * (i % 2 == 0 and j % 2 == 0) if total else 1.0
            table[ks] += math.prod(t[0] for t in terms) * weight * g[i + 1] * g[j + 1]
    return table


# (M1, M2/2, M3/6) for upcrossings (False) and total crossings (True).
_WEAK_TABLES = {total: tuple(_weak_moments(n, total) / math.factorial(n) for n in (1, 2, 3))
                for total in (False, True)}


def _weak_sum(c, total: bool):
    """M1 c + c^T M2 c / 2 + M3[c, c, c] / 6 over the last axis of c.  A
    stack of vectors takes batched matrix products, which give each vector
    the bits of the one-vector products."""
    m1, m2, m3 = _WEAK_TABLES[total]
    if c.ndim == 1:
        return float(c @ (m1 + (m2 + m3 @ c) @ c))
    s = m1 + ((m2 + (m3 @ c[..., None, :, None])[..., 0]) @ c[..., :, None])[..., 0]
    return (c[..., None, :] @ s[..., :, None])[..., 0, 0]


def _linearized(kernel: Kernel, u, d, total: bool, xp=_Floats):
    """Weak-correlation expansion of the excess integrand, third order in
    the lag-t correlations (r, p, q).

    Writes the two-point joint density as the independent product times
    exp(eta), where eta collects the inverse-covariance correction
    (Neumann series in the correlation block, truncated after the cubic
    term) and the log-determinant correction (trace series, same order).
    Its coefficients c in ``_WEAK_BASIS`` are closed-form polynomials in
    rho = r/r0, kappa = q/q0, pi = p/sqrt(r0 q0) and v = u/sqrt(r0).
    exp(eta) - 1 through eta^3, integrated against the velocity weight, is
    M1 c + c^T M2 c / 2 + M3[c, c, c] / 6.  The truncation error is
    O(level^4) absolute, hence at most O(level^2) relative even at the
    zero-level total-crossing point where the excess itself is second
    order; below the 1e-4 switch level that is < 1e-8 relative.
    """
    r0, q0 = kernel.r0, kernel.q0
    rho, kap, pi2, v2 = d.r / r0, d.q / q0, d.p * d.p / (r0 * q0), u * u / r0
    c = xp.stack([
        0.5 * (rho * rho + kap * kap) + pi2
        + v2 * (rho - rho * rho + rho * rho * rho + pi2 * (2.0 * rho - 1.0 - kap)),
        -d.p * u / (r0 * math.sqrt(q0)) * (1.0 + kap + kap * kap - rho - kap * rho + rho * rho + pi2),
        -0.5 * (kap * kap + pi2),
        kap + kap * kap * kap + pi2 * (2.0 * kap - rho),
    ])
    return q0 / r0 * xp.exp(-v2) / (2.0 * math.pi) * _weak_sum(c, total)


def _excess(kernel: Kernel, u, lag, total: bool, xp=_Floats):
    """The body of ``integrand_up`` (``total`` False) and ``integrand_total``,
    from the level-free work ``lag = _lag(kernel, t)``.  With ``xp=_Arrays``
    it takes a column of levels u and the fields of ``lag`` as rows over
    the lags of one regime (see ``_panel``)."""
    if isinstance(lag, KernelDerivatives):
        return _linearized(kernel, u, lag, total, xp)
    alpha, beta, delta, _, rr_diff, sqrt2_p, rp = lag
    pref = xp.exp(-delta * u * u) / (4.0 * math.pi**2 * xp.sqrt(rr_diff))
    product = kernel.q0 / kernel.r0 * xp.exp(-u * u / kernel.r0) / (
        math.pi**2 if total else 4.0 * math.pi**2
    )
    return pref * _bracket(alpha, beta, sqrt2_p * u / rp, total, xp) - product


def _zero_excess(kernel: Kernel, u, lag, total: bool, xp=_Floats):
    """The body of ``_integrand_zero``, with ``_excess``' arguments; u (0, or a
    column of zeros) is read only at weak-correlation lags (``_linearized``)."""
    if isinstance(lag, KernelDerivatives):
        return _linearized(kernel, u, lag, total, xp)
    alpha, beta, _, _, rr_diff, _, _ = lag
    ab = alpha * beta
    a_ratio = xp.sqrt(alpha / beta)
    angle = xp.atan((a_ratio - 1.0) / (a_ratio + 1.0)) if total else xp.atan(a_ratio)
    bracket = 1.0 / xp.sqrt(ab) + (alpha - beta) / ab * angle
    return bracket / ((2.0 if total else 8.0) * math.pi**2 * xp.sqrt(rr_diff)) - (
        kernel.q0 / kernel.r0 / ((1.0 if total else 4.0) * math.pi**2)
    )


def _linear(kernel: Kernel, levels: np.ndarray, total: bool, r, q) -> np.ndarray:
    """Lin = a r + b q, the first-order part of ``_linearized``, for a
    column of levels over the lags where the kernel gives r and q.

    In ``_linearized``'s terms Lin = A (m0 v^2 rho + m3 kappa), with
    A = (q0/r0) e^{-v^2}/(2 pi) and (m0, m3) the entries 0 and 3 of M1:
    (1/(2 pi), 1/4) up and (2/pi, 0) total.  So a = A m0 v^2/r0 and
    b = A m3/q0, formed per level in Python floats.  It is the excess's
    slowest-decaying part, as slow as r itself at u != 0 (the Hermite-rank-one
    term of Cuzick 1976 and Kratz & Leon 2001), and ``_linear_tail``
    integrates it in closed form.
    """
    a, b = _linear_terms(kernel, levels, total)
    return np.array(a)[:, None] * r + np.array(b)[:, None] * q


def _linear_terms(kernel: Kernel, levels: np.ndarray, total: bool) -> tuple[list, list]:
    """``_linear``'s coefficients (a, b), one of each per level."""
    r0, q0 = kernel.r0, kernel.q0
    m1 = _WEAK_TABLES[total][0]
    a, b = [], []
    for u in levels.ravel().tolist():
        v2 = u * u / r0
        amp = q0 / r0 * math.exp(-v2) / (2.0 * math.pi)
        a.append(amp * float(m1[0]) * v2 / r0)
        b.append(amp * float(m1[3]) / q0)
    return a, b


def _tail_start(kernel: Kernel) -> float:
    """t_s = 32 tau_slow, where long-time integrands switch to I - Lin: a
    breakpoint of the tail map, so no panel straddles it, and past the
    switch lag to the short-lag series (0.1 series_scale <= 0.1 tau_slow),
    so every lag beyond it is a direct one."""
    return 32.0 * kernel.tau_slow


def _linear_tail(kernel: Kernel, levels: np.ndarray, total: bool) -> list[float]:
    """int_{t_s}^inf Lin, exactly, for each level: a R(t_s) + b p(t_s), with
    R(t) = int_t^inf r (``Kernel.tail_integral``) and int_t^inf q = p(t).
    The a R term is absent where a = 0 (u = 0), so an infinite R(t_s) never
    enters there."""
    t_s = _tail_start(kernel)
    a, b = _linear_terms(kernel, levels, total)
    p = kernel.eval(t_s).p
    rho = kernel.tail_integral(t_s) if any(a) else 0.0
    return [(ai * rho if ai else 0.0) + bi * p for ai, bi in zip(a, b)]


def _panel(kernel: Kernel, levels: np.ndarray, ts, total: bool, excess=_excess,
           t_s: float = math.inf) -> np.ndarray:
    """Every level's excess at every lag ts, as a (levels, lags) array: the
    level-free work as arrays over the lags (``_lags``), then one array
    expression per regime, ``_excess`` or the zero level's ``_zero_excess``.
    At lags t >= t_s it gives I - Lin (``_linear``), from the same kernel
    evaluation."""
    ts = np.asarray(ts, dtype=float)
    values = np.empty((len(levels), len(ts)))
    groups, d = _lags(kernel, ts)
    for cols, lag in groups:
        with np.errstate(all="ignore"):  # the integrator rejects a non-finite value
            values[:, cols] = excess(kernel, levels, lag, total, _Arrays)
    far = ts >= t_s
    if np.count_nonzero(far):  # every far lag is direct (_tail_start)
        far_d = d.t >= t_s
        values[:, far] -= _linear(kernel, levels, total, d.r[far_d], d.q[far_d])
    return values


def integrand_up(kernel: Kernel, u: float, t: float) -> float:
    """Excess two-point upcrossing intensity at lag t (the variance integrand)."""
    return _excess(kernel, u, _lag(kernel, t), total=False)


def integrand_total(kernel: Kernel, u: float, t: float) -> float:
    """Excess two-point total-crossing intensity at lag t."""
    return _excess(kernel, u, _lag(kernel, t), total=True)


def _integrand_zero(kernel: Kernel, t: float, total: bool) -> float:
    """Zero-level excess integrand at lag t, up or total (``_zero_excess``)."""
    return _zero_excess(kernel, 0.0, _lag(kernel, t), total)


# -- statistics ---------------------------------------------------------------

def mean_rate(kernel: Kernel, u: float, mode=CrossingMode.UP) -> float:
    """Expected crossings per unit time; depends only on r0 and q0."""
    if math.isnan(u):
        raise ValueError("level u must not be NaN")
    mode = _mode(mode)
    rate = (
        1.0 / (2.0 * math.pi)
        * math.sqrt(kernel.q0 / kernel.r0)
        * math.exp(-u * u / (2.0 * kernel.r0))
    )
    return 2.0 * rate if mode is CrossingMode.TOTAL else rate


def mean_count(kernel: Kernel, u: float, T: float, mode=CrossingMode.UP) -> float:
    """Expected number of crossings in a window of length T."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be finite and > 0 (got {T})")
    return T * mean_rate(kernel, u, mode)


def _float_stats(kernel: Kernel, u: float, mode: CrossingMode, T: float | None,
                 spec: QuadratureSpec | None, excess=_excess) -> CrossingStats:
    """One level's statistics on the float path (``_lag``), one integrand call
    per lag, for ``variance_count``; for ``excess=_zero_excess``, through
    ``_integrand_zero``.  Otherwise the tests' reference: with T None it
    integrates a row of one, I - Lin past t_s as ``_panel`` gives it (the
    kernel evaluated once more at those lags)."""
    total = mode is CrossingMode.TOTAL
    f = pointwise(functools.partial(_integrand_zero, kernel, total=total) if excess is _zero_excess
                  else functools.partial(integrand_total if total else integrand_up, kernel, u))
    if T is not None:
        return _assemble(kernel, u, mode, T, lambda: _lag_integral(kernel, f, T, spec))
    levels = np.array([[float(u)]])
    t_s = _tail_start(kernel)

    def row(ts):
        values = np.array([f(ts.tolist())])
        far = ts >= t_s
        if np.count_nonzero(far):
            d = kernel.eval_array(ts[far])
            values[:, far] -= _linear(kernel, levels, total, d.r, d.q)
        return values

    return _assemble(kernel, u, mode, None,
                     lambda: _lag_integral(kernel, row, None, spec, levels, total)[0])


def _gate(kernel: Kernel) -> None:
    """Validity gate, run once per kernel (() or the ``ValidityError`` is
    cached on it): the short-lag series must form in floats (``_abg_polys``)
    and pass ``check_validity``'s two checks; the error names the failed ones."""
    cached = getattr(kernel, "_gate_cache", None)
    if cached is None:
        _abg_polys(kernel)
        failed = {n: detail for n, (ok, detail) in check_validity(kernel).checks.items() if not ok}
        cached = ValidityError(f"{kernel!r} fails validity checks: {failed}") if failed else ()
        kernel._gate_cache = cached
    if isinstance(cached, ValidityError):
        raise ValidityError(*cached.args)


def _lag_integral(kernel: Kernel, f, T: float | None, spec: QuadratureSpec | None,
                  levels: np.ndarray | None = None, total: bool = False):
    """int_0^inf f, or int_0^T (1-t/T) f, with breakpoints at multiples of
    tau_slow: the integration policy of every statistic.  f is 0/0 at lag 0,
    so the left end stays open, and one tail map on tau_slow serves every
    family.

    With ``levels``, a column, f gives those levels' integrands at once, as
    a (levels, lags) array, and the result is one ``QuadratureResult`` per
    level, from the one lockstep driver on either range.  A long-time f
    gives I - Lin past t_s (``_panel``), so each value gains int_{t_s}^inf
    Lin in closed form (``_linear_tail``): the integrator then never meets
    the slow tail of a power-law kernel, which it under-resolves while its
    error estimate stays small.  Without ``levels``, f is one window's float
    integrand, integrated a panel at a time (``integrate_finite``).
    """
    tau = kernel.tau_slow
    open_left = 1e-7 * tau
    if T is None:
        results = integrate_semi_infinite_rows(f, len(levels), 0.0, spec, scale=tau,
                                               open_left=open_left)
        return [replace(result, value=result.value + tail)
                for result, tail in zip(results, _linear_tail(kernel, levels, total))]
    breaks = [m * tau for m in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)]
    if levels is None:
        return integrate_finite(lambda ts: [(1.0 - t / T) * v for t, v in zip(ts, f(ts))],
                                0.0, T, spec, open_left=open_left, breakpoints=breaks)
    return integrate_finite_rows(lambda ts: (1.0 - ts / T) * f(ts), len(levels), 0.0, T, spec,
                                 open_left=open_left, breakpoints=breaks)


def _assemble(kernel: Kernel, u: float, mode: CrossingMode, T: float | None,
              integral) -> CrossingStats:
    """The one variance-assembly path: mean + 2 int_0^inf I, or for a window
    of length T, mean + 2T int_0^T (1-t/T) I, from ``integral()``, the
    ``QuadratureResult`` of that integral (``_lag_integral``).  The validity
    gate runs first.  A negative result within 10x the quadrature error is
    clamped to 0 with a warning; beyond that it is a bug signal and raises.
    A level so far out that the mean underflows to 0 has variance 0, and
    ``integral`` is never called there.
    """
    mean = mean_rate(kernel, u, mode) if T is None else mean_count(kernel, u, T, mode)
    _gate(kernel)
    if mean == 0.0:
        result = QuadratureResult(0.0, 0.0, 0, True)
        scale = 0.0
    else:
        result = integral()
        scale = 2.0 if T is None else 2.0 * T
    # Plain float/bool fields: the series path's Horner sums are numpy scalars.
    raw = float(mean + scale * result.value)
    quad_error = float(scale * result.error)
    warnings = ()
    if raw < 0.0:
        if raw < -10.0 * max(quad_error, 1e-300):
            raise NegativeVarianceError(
                f"variance {raw} negative beyond 10x quadrature error {quad_error}"
            )
        warnings = (f"raw variance {raw} clamped to 0 (within quadrature error)",)
        raw = 0.0
    return CrossingStats(
        mode=mode, u=float(u), mean=mean, variance=raw,
        fano=raw / mean if T is None and mean > 0 else None,
        horizon=None if T is None else float(T), quad_error=quad_error,
        quad_converged=bool(result.converged), evaluations=result.evaluations,
        warnings=warnings,
    )


def variance_count(
    kernel: Kernel,
    u: float,
    T: float,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
) -> CrossingStats:
    """Finite-horizon crossing-count variance: mean + 2T int_0^T (1-t/T) I dt."""
    return _float_stats(kernel, u, _mode(mode), T, spec)


def variance_rate_asymptotic(
    kernel: Kernel, u, mode=CrossingMode.UP, spec: QuadratureSpec | None = None
) -> CrossingStats | tuple[CrossingStats, ...]:
    """Long-time variance per unit time: mean rate + 2 int_0^inf I dt.

    ``u`` may also be a sequence of levels; the result is then a tuple with
    one ``CrossingStats`` per level, each equal to its single-level call.
    The levels, a scalar as a row of one, are integrated in lockstep
    (``_row``), which raises what its failing round raises.
    """
    mode = _mode(mode)
    scalar = np.ndim(u) == 0
    row = _row(kernel, (u,) if scalar else u, mode, spec)
    return row[0] if scalar else row


def _row(kernel: Kernel, u, mode: CrossingMode, spec: QuadratureSpec | None,
         excess=_excess, T: float | None = None) -> tuple:
    """Long-time statistics of a row of levels, or a window's with T,
    integrated in lockstep, each on its own adaptive mesh: every round, one
    ``_panel`` call evaluates every live level at the lags of every panel
    that any level asks for and no earlier round gave (the quadrature's
    lockstep driver, on either range).  A row raises what the means, the gate
    or its failing round raise, in ``_assemble``'s order, with no fallback,
    or ``ValidityError`` first at a live long-time level whose integral
    diverges: for r ~ t^-k (``Kernel.tail_power``), k <= 1, or k <= 1/2 at
    u = 0."""
    means = [mean_rate(kernel, level, mode) if T is None else mean_count(kernel, level, T, mode)
             for level in u]
    _gate(kernel)  # before any integration, as in _assemble
    total = mode is CrossingMode.TOTAL
    # The levels whose mean underflows never integrate (see _assemble).
    live = [i for i, mean in enumerate(means) if mean != 0.0]
    k = kernel.tail_power
    for i in live if T is None else ():  # a window integrates a finite range
        if k <= (1.0 if u[i] != 0.0 else 0.5):
            raise ValidityError(f"{kernel!r}: the long-time variance at u={float(u[i])} diverges "
                                f"for r ~ t^-k, k = {k} (it needs k > 1, or k > 1/2 at u = 0)")
    levels = np.array([u[i] for i in live], dtype=float)[:, None]
    t_s = _tail_start(kernel) if T is None else math.inf
    results = dict(zip(live, _lag_integral(
        kernel, lambda ts: _panel(kernel, levels, ts, total, excess, t_s), T, spec, levels, total)))
    return tuple(_assemble(kernel, level, mode, T, lambda i=i: results[i])
                 for i, level in enumerate(u))


def fano(
    kernel: Kernel, u, mode=CrossingMode.UP, spec: QuadratureSpec | None = None
) -> float | None | tuple[float | None, ...]:
    """Long-time Fano factor: the variance rate over the mean rate (None if
    the mean rate underflows to 0), from ``variance_rate_asymptotic``.  A
    sequence of levels gives a tuple with one factor per level, computed as
    one row."""
    stats = variance_rate_asymptotic(kernel, u, mode, spec)
    return stats.fano if isinstance(stats, CrossingStats) else tuple(st.fano for st in stats)


def zero_level_stats(
    kernel: Kernel,
    T: float | None = None,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
) -> CrossingStats:
    """Zero-level statistics through the dedicated arctan-form integrand.

    An independent cross-check path: it never touches erf or Owen's T, and
    shares only the weak-correlation expansion with the general path.
    T=None computes the asymptotic rates, with T the finite-T variance:
    either way a row of one on the lockstep driver (``_row``), on the tail
    map or on [0, T] with the weight 1 - t/T, with the value, error,
    evaluation count and exceptions of the float path; it raises what its
    failing round raises.
    """
    return _row(kernel, (0.0,), _mode(mode), spec, _zero_excess, T)[0]


def _unit_kernel(family: str, shape: dict) -> Kernel:
    from . import kernels as K

    key = {"sdho": "zeta", "ou_mean_revert": "kappa", "rational_quadratic": "alpha_shape"}.get(family)
    if key is not None and key not in shape:
        raise ValueError(f"family {family!r} needs the shape parameter {key!r}")
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
    psi,
    mode=CrossingMode.UP,
    spec: QuadratureSpec | None = None,
    shape: dict | None = None,
) -> float | None | tuple[float | None, ...]:
    """Fano factor as a function of the dimensionless threshold psi = u/sigma.

    Accepts either a kernel (its shape parameters are extracted) or a family
    name plus a shape dict.  The Fano factor is scale-free: this evaluates
    the unit-amplitude, unit-timescale member of the family at u = psi.  A
    sequence of thresholds gives a tuple, as ``fano`` does.
    """
    if isinstance(family_or_kernel, Kernel):
        family = family_or_kernel.family
        shape = family_or_kernel.shape
    else:
        family = str(family_or_kernel)
        shape = shape or {}
    unit = _unit_kernel(family, shape)
    return fano(unit, psi, mode, spec)
