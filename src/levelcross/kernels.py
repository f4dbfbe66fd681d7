"""
levelcross.kernels
==================

Autocorrelation kernels for the smooth stationary Gaussian processes the
crossing statistics operate on.  Three model families are built in:

* ``sdho``  -- position of a stochastically driven damped harmonic
  oscillator;
* ``ou_mean_revert`` -- a mean-reverting observable driven by
  Ornstein-Uhlenbeck noise (bi-exponential correlation);
* ``rational_quadratic`` and its large-shape limit ``squared_exponential``.

The two model systems are one bi-exponential family at and above critical
damping (``map_ou_to_sdho``): both evaluate it, and its series, in one
cancellation-free form, ``_two_rates``, exact as the two rates merge or
part.  Below critical damping the oscillator takes a circular form
instead; the form is picked from the damping ratio once per kernel.

Every kernel evaluates (r(t), r'(t), -r''(t)) in closed form -- no numeric
differentiation -- and carries a one-sided Taylor expansion of r about
t = 0 (to t^16) that downstream code uses for cancellation-safe short-lag
evaluation of the crossing parameters.

Each family's closed form is written once, in the operations of
:mod:`levelcross._xp`, and serves ``Kernel.eval`` (one lag, Python floats)
and ``Kernel.eval_array`` (a 1-D array of lags) alike; every element of an
array evaluation has the bits of ``eval`` at that lag.  No closed form
branches on the lag: each is one expression, t = 0 included.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._xp import _Arrays, _Floats

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
]

_TAYLOR_ORDER = 17  # coefficients a_0 .. a_16 of the one-sided expansion
_SERIES_FRACTION = 0.1   # the statistics take the series below this multiple of series_scale
_SERIES_TOLERANCE = 1e-12  # the gate's bound on series - eval there, relative to the moments


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
    tail_power  k of a power-law tail r ~ t^-k, inf (the default) for any
                faster tail: the long-time statistics refuse k <= 1 at u != 0
                and k <= 1/2 at u = 0, where their integral diverges

    Below 0.1 series_scale the statistics take the series, with a_1 = 0, for
    ``eval``; the validity gate (``check_validity``) checks that they agree.
    """

    family: str
    params: dict
    r0: float
    q0: float
    tau_slow: float
    tau_fast: float
    shape: dict
    tail_power: float = math.inf

    def __init__(self, **params):
        for name, value in params.items():
            if not math.isfinite(value):
                raise KernelError(f"{name} must be finite (got {value})")
        self.params = params
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

    def _check_scales(self) -> None:
        """KernelError unless r0, q0, tau_slow and tau_fast are floats > 0:
        finite parameters whose squares or ratios leave the float range."""
        for name in ("r0", "q0", "tau_slow", "tau_fast"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise KernelError(f"{self!r} gives {name} = {value}; it must be finite and > 0")

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


def _over(num: float, den: float) -> float:
    """num/den for den >= 0, inf where den underflowed to 0."""
    return num / den if den > 0.0 else math.inf


def _two_rates(xp, t, amp, slow, gap):
    """(r, p, q) of r(t) = amp e^{-slow t} (1 - (slow/gap) expm1(-gap t)).

    This is the correlation amp (fast e^{-slow t} - slow e^{-fast t})/gap of
    the two decay rates slow and fast = slow + gap, with gap >= 0, written
    without their difference: with g = (1 - e^{-gap t})/gap in [0, t] (t at
    gap = 0), r = amp e^{-slow t}(1 + slow g), p = -amp slow fast g e^{-slow t}
    and q = amp slow fast e^{-slow t}(e^{-gap t} - slow g), so nothing
    cancels but q at its sign change, and no exponent is positive.
    """
    fast = slow + gap
    decay = xp.exp(-slow * t)
    if gap > 0.0:
        em = xp.expm1(-gap * t)
        g = -em / gap
    else:
        em, g = 0.0, t
    r = amp * decay * (1.0 + slow * g)
    p = -amp * slow * fast * g * decay
    q = amp * slow * fast * decay * (1.0 + em - slow * g)
    return r, p, q


def _two_rates_taylor(amp, slow, gap) -> np.ndarray:
    """The series of ``_two_rates``'s r: a_0 = amp, a_1 = 0 and, for k >= 2,
    a_k = (-1)^{k+1} amp slow fast h_{k-2}/k! with the sum of positive terms
    h_m = sum_j slow^j fast^{m-j}, so no coefficient cancels."""
    fast = slow + gap
    coeffs = np.zeros(_TAYLOR_ORDER)
    coeffs[0] = amp
    h = 1.0
    for k in range(2, _TAYLOR_ORDER):
        coeffs[k] = (-1.0) ** (k + 1) * amp * slow * fast * h / math.factorial(k)
        h = fast * h + slow ** (k - 1)
    return coeffs


class SdhoKernel(Kernel):
    """Damped-harmonic-oscillator position autocorrelation, A = theta/w^2.

    At and above critical damping r(t) is ``_two_rates`` of the decay rates
    w/(zeta + sqrt(zeta^2-1)) and w (zeta + sqrt(zeta^2-1)), whose gap is
    2 w sqrt(zeta^2-1).  Below it, with w_d = w sqrt(1-zeta^2) and
    s = w_d t, r(t) = A e^{-zeta w t}(cos s + zeta w sin(s)/w_d), which is
    analytic at every lag, t = 0 included.  The form is picked from zeta
    once per kernel.
    """

    family = "sdho"

    def __init__(self, omega0: float, zeta: float, theta: float):
        super().__init__(omega0=omega0, zeta=zeta, theta=theta)
        if omega0 <= 0 or theta <= 0:
            raise KernelError("omega0 and theta must be > 0")
        if zeta <= 0:
            raise KernelError("zeta must be > 0 (undamped process never decorrelates)")
        self.omega0 = omega0
        self.zeta = zeta
        self.theta = theta
        self.r0 = _over(theta, omega0 * omega0)
        self.q0 = theta
        self.tau_fast = 1.0 / omega0
        self.shape = {"zeta": zeta}
        if zeta >= 1.0:
            root = math.sqrt((zeta - 1.0) * (zeta + 1.0))
            self._rates = (self.r0, omega0 / (zeta + root), 2.0 * omega0 * root)
            self.tau_slow = _over(1.0, self._rates[1])
        else:
            self._rates = None
            self._omega_d = omega0 * math.sqrt(1.0 - zeta * zeta)  # s = _omega_d * t
            self.tau_slow = _over(1.0, zeta * omega0)
        self._check_scales()

    @property
    def series_scale(self) -> float:
        # Taylor convergence is set by the fastest exponential rate,
        # w (zeta + sqrt(zeta^2 - 1)) at and above critical damping.
        if self._rates is None:
            return self.tau_fast
        _, slow, gap = self._rates
        return 1.0 / (slow + gap)

    def _rpq(self, t, xp=_Floats):
        if self._rates is not None:
            return _two_rates(xp, t, *self._rates)
        w = self.omega0
        zw = self.zeta * w
        amp = self.r0
        s = self._omega_d * t
        sv = xp.sin(s) / self._omega_d  # sin(w_d t)/w_d: 0 at t = 0, no 0/0
        decay = xp.exp(-zw * t)
        r = amp * decay * (xp.cos(s) + zw * sv)
        p = -amp * w * w * decay * sv
        # r solves r'' + 2 zeta w r' + w^2 r = 0 for t > 0.
        q = 2.0 * zw * p + w * w * r
        return r, p, q

    def _taylor_coefficients(self) -> np.ndarray:
        if self._rates is not None:
            return _two_rates_taylor(*self._rates)
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
    kappa = tau_f/tau_e: the bi-exponential of the rates 1/tau_slow and
    1/tau_fast with r(0) = sigma^2 kappa/(1+kappa), evaluated as
    ``_two_rates``, which has no 0/0 as kappa -> 1 and no growing exponential
    on either side of it, so no guard threshold is required.
    """

    family = "ou_mean_revert"

    def __init__(self, sigma: float, tau_f: float, tau_e: float):
        super().__init__(sigma=sigma, tau_f=tau_f, tau_e=tau_e)
        if sigma <= 0 or tau_f <= 0 or tau_e <= 0:
            raise KernelError("sigma, tau_f, tau_e must be > 0")
        self.sigma = sigma
        self.tau_f = tau_f
        self.tau_e = tau_e
        self.kappa = tau_f / tau_e
        self.r0 = sigma * sigma * self.kappa / (1.0 + self.kappa)
        self.q0 = _over(sigma * sigma, (1.0 + self.kappa) * tau_e * tau_e)
        self.tau_slow = max(tau_f, tau_e)
        self.tau_fast = min(tau_f, tau_e)
        self.shape = {"kappa": self.kappa}
        self._check_scales()
        self._rates = (self.r0, 1.0 / self.tau_slow, 1.0 / self.tau_fast - 1.0 / self.tau_slow)

    def _rpq(self, t, xp=_Floats):
        return _two_rates(xp, t, *self._rates)

    def _taylor_coefficients(self) -> np.ndarray:
        return _two_rates_taylor(*self._rates)


class RationalQuadraticKernel(Kernel):
    """r(t) = sigma^2 (1 + t^2/(2 alpha tau^2))^{-alpha}; power-law tail t^{-2 alpha}."""

    family = "rational_quadratic"

    def __init__(self, sigma: float, tau: float, alpha_shape: float):
        super().__init__(sigma=sigma, tau=tau, alpha_shape=alpha_shape)
        if sigma <= 0 or tau <= 0 or alpha_shape <= 0:
            raise KernelError("sigma, tau, alpha_shape must be > 0")
        self.sigma = sigma
        self.tau = tau
        self.alpha_shape = alpha_shape
        self.r0 = sigma * sigma
        self.q0 = _over(sigma * sigma, tau * tau)
        self.tau_slow = tau
        self.tau_fast = tau
        self.shape = {"alpha_shape": alpha_shape}
        self.tail_power = 2.0 * alpha_shape
        self._check_scales()

    @property
    def series_scale(self) -> float:
        # The series in t^2/(2 alpha tau^2) converges for t < tau sqrt(2 alpha).
        return self.tau * min(1.0, math.sqrt(2.0 * self.alpha_shape))

    def _rpq(self, t, xp=_Floats):
        a = self.alpha_shape
        tau2 = self.tau * self.tau
        s2 = self.sigma * self.sigma
        x = t * t / (2.0 * a * tau2)
        base = 1.0 + x
        pw = xp.exp(-a * xp.log1p(x))  # base^{-a}, from x rather than the rounded base
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
        for j in range(0, _TAYLOR_ORDER, 2):
            k = j // 2
            coeffs[j] = (
                self.r0 * (-1.0) ** k * rising
                / (math.factorial(k) * (2.0 * a * self.tau**2) ** k)
            )
            rising *= a + k
        return coeffs


class SquaredExponentialKernel(Kernel):
    """r(t) = sigma^2 exp(-t^2/(2 tau^2)); the alpha -> infinity limit of RQ."""

    family = "squared_exponential"

    def __init__(self, sigma: float, tau: float):
        super().__init__(sigma=sigma, tau=tau)
        if sigma <= 0 or tau <= 0:
            raise KernelError("sigma, tau must be > 0")
        self.sigma = sigma
        self.tau = tau
        self.r0 = sigma * sigma
        self.q0 = _over(sigma * sigma, tau * tau)
        self.tau_slow = tau
        self.tau_fast = tau
        self.shape = {}
        self._check_scales()

    def _rpq(self, t, xp=_Floats):
        tau2 = self.tau * self.tau
        r = self.r0 * xp.exp(-0.5 * t * t / tau2)
        p = -r * t / tau2
        rpp = r * (t * t / (tau2 * tau2) - 1.0 / tau2)
        return r, p, -rpp

    def _taylor_coefficients(self) -> np.ndarray:
        coeffs = np.zeros(_TAYLOR_ORDER)
        for j in range(0, _TAYLOR_ORDER, 2):
            coeffs[j] = self.r0 * (-0.5 / self.tau**2) ** (j // 2) / math.factorial(j // 2)
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
    """The validity gate of a kernel, or of a stand-in with its attributes,
    ``eval`` and ``taylor``: two checks of what the statistics assume.

    * ``positive_moments``: r0, q0 and r0 q0 (p's scale is its root) are floats > 0;
    * ``series_matches``: at the switch lag t_s = 0.1 series_scale, the
      series that the statistics take below it (a_1 = 0) gives r, p and q
      that differ from ``eval(t_s)``'s by at most 1e-12 of r0, sqrt(r0 q0)
      and q0.

    The details are plain floats: the moments; t_s and the relative gaps.
    """
    r0, q0 = kernel.r0, kernel.q0
    checks = {"positive_moments": (all(0.0 < m < math.inf for m in (r0, q0, r0 * q0)),
                                   {"r0": r0, "q0": q0})}
    t = _SERIES_FRACTION * kernel.series_scale
    a = [float(c) for c in kernel.taylor]
    a[1] = 0.0
    r = p = h = 0.0  # Horner's rule for the series, r' and r''/2 at once
    for c in reversed(a):
        r, p, h = r * t + c, p * t + r, h * t + p
    gaps = {name: _over(abs(s - e), scale) for name, s, e, scale in zip(
        "rpq", (r, p, -2.0 * h), kernel.eval(t), (r0, math.sqrt(r0) * math.sqrt(q0), q0))}
    checks["series_matches"] = (all(gap <= _SERIES_TOLERANCE for gap in gaps.values()),
                                {"t": t, **gaps})
    return ValidityReport(checks=checks)
