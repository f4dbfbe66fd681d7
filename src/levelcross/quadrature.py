"""
levelcross.quadrature
=====================

Adaptive one-dimensional integration tailored to the crossing integrands:

* a nested Gauss(7)/Kronrod(15) pair with deterministic bisection refinement
  on finite intervals;
* an ``open_left`` endpoint policy that never evaluates the integrand at the
  lower endpoint, refining geometrically toward it (the excess-crossing
  integrand is 0/0 at lag zero, and the short-lag regime can hold an
  integrable singularity) and folding a bound for the unresolved stub into
  the error estimate;
* one semi-infinite tail map, t = lo + L x/(1-x) with L = 4 times the
  caller's timescale (the standard semi-infinite substitution of QUADPACK,
  Piessens et al. 1983): it folds [lo, inf) onto [0, 1) for exponential
  and power-law tails alike, so every tail is integrated to the end and
  bounded by the same Gauss-Kronrod error estimate.

``QuadratureSpec`` holds only the tolerances and the subdivision cap.  The
caller passes the policies as arguments: the open-left offset, the
breakpoints and the timescale.  The statistics fix theirs in one place
(``crossings._assemble``).

Everything is deterministic: fixed node sets, worst-interval-first
bisection, no randomness.

Integrands are evaluated a panel at a time: the integrator calls
``f(nodes)`` with a list of abscissae (the 15 nodes of one Gauss-Kronrod
panel, or the single open-left edge point) and takes a sequence of as many
values back, so an integrand can share work across a panel's nodes.  The
values are summed in a fixed order; the first non-finite one, in node
order, raises ``IntegrationError``.  A function of one abscissa joins
through ``pointwise``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "IntegrationError",
    "integrate_finite",
    "integrate_semi_infinite",
    "pointwise",
]


class IntegrationError(ValueError):
    """Raised when the integrand returns a non-finite value.

    Carries the offending abscissa in ``abscissa``.
    """

    def __init__(self, message: str, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa


@dataclass(frozen=True)
class QuadratureSpec:
    """What a caller may set: the tolerances and the subdivision cap.  The
    endpoint and tail policies are arguments of the integrators."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    evaluations: int
    converged: bool


# Gauss(7)/Kronrod(15) nodes and weights on [-1, 1] (QUADPACK constants).
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    512.0 / 1225.0,
)


def pointwise(f: Callable[[float], float]) -> Callable[[Sequence[float]], list[float]]:
    """The panel integrand of a function of one abscissa."""
    return lambda nodes: [f(t) for t in nodes]


def _gk15(f: Callable[[list[float]], Sequence[float]], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15-point panel: returns (kronrod value, error estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [center]
    for x in _XGK[:7]:
        dx = half * x
        nodes += (center - dx, center + dx)
    values = f(nodes)
    if not all(map(math.isfinite, values)):
        t = next(t for t, v in zip(nodes, values) if not math.isfinite(v))
        raise IntegrationError(f"non-finite integrand value at t={t!r}", t)
    pairs = iter(values)
    fc = next(pairs)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j, f1, f2 in zip(range(7), pairs, pairs):
        kron += _WGK[j] * (f1 + f2)
        if j % 2 == 1:  # Kronrod nodes 1,3,5 are the Gauss-7 nodes
            gauss += _WG[j // 2] * (f1 + f2)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def _adaptive(f, segments: Sequence[tuple[float, float]], spec: QuadratureSpec) -> QuadratureResult:
    """Worst-first bisection over an initial list of segments."""
    heap: list[tuple[float, int, float, float, float, float]] = []
    value = 0.0
    error = 0.0
    evals = 0
    tie = 0  # tie-breaker keeps heap ordering deterministic
    for (a, b) in segments:
        v, e = _gk15(f, a, b)
        evals += 15
        value += v
        error += e
        heapq.heappush(heap, (-e, tie, a, b, v, e))
        tie += 1
    subdivisions = len(segments)
    exhausted = False
    while True:
        while error > _tolerance(spec, value) and subdivisions < spec.max_subdivisions:
            neg_e, _, a, b, v, e = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval at floating-point resolution
                heapq.heappush(heap, (0.0, tie, a, b, v, e))
                tie += 1
                if all(item[0] == 0.0 for item in heap):
                    exhausted = True
                    break
                continue
            v1, e1 = _gk15(f, a, mid)
            v2, e2 = _gk15(f, mid, b)
            evals += 30
            value += v1 + v2 - v
            error += e1 + e2 - e
            heapq.heappush(heap, (-e1, tie, a, mid, v1, e1))
            tie += 1
            heapq.heappush(heap, (-e2, tie, mid, b, v2, e2))
            tie += 1
            subdivisions += 1
        # Re-sum from the heap for a roundoff-clean total; the running error
        # drifts slightly below the true sum, so if the clean total still
        # misses the tolerance, keep refining with the corrected figures.
        value = math.fsum(item[4] for item in heap)
        error = math.fsum(item[5] for item in heap)
        if (error <= _tolerance(spec, value) or exhausted
                or subdivisions >= spec.max_subdivisions):
            return QuadratureResult(value, error, evals, error <= _tolerance(spec, value))


def _split_segments(lo: float, hi: float, breakpoints) -> list[tuple[float, float]]:
    edges = [lo, *sorted(p for p in breakpoints if lo < p < hi), hi]
    return list(zip(edges, edges[1:]))


def integrate_finite(
    f: Callable[[list[float]], Sequence[float]], lo: float, hi: float,
    spec: QuadratureSpec | None = None, *, open_left: float | None = None, breakpoints=(),
) -> QuadratureResult:
    """Integrate f on [lo, hi], seeding the segments at the interior
    ``breakpoints``.  With an ``open_left`` offset > 0 it integrates on
    (lo, hi] and never evaluates f at lo."""
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if open_left is None:
        return _adaptive(f, _split_segments(lo, hi, breakpoints), spec)

    # Open-left: adaptive pass on [lo+offset, hi], then geometric panels
    # shrinking toward lo; the final unresolved stub is bounded by
    # width * |f| at its right edge and folded into the error estimate.
    offset = min(open_left, 1e-3 * (hi - lo))
    # The main pass targets half the tolerance so the endpoint-panel and
    # stub-bound additions below cannot push the total over budget.
    main_spec = replace(spec, rel_tol=0.5 * spec.rel_tol, abs_tol=0.5 * spec.abs_tol)
    main = _adaptive(f, _split_segments(lo + offset, hi, breakpoints), main_spec)
    value = main.value
    error = main.error
    evals = main.evaluations
    right = lo + offset
    for _ in range(60):
        left = lo + 0.5 * (right - lo)
        if left >= right:
            break
        v, e = _gk15(f, left, right)
        evals += 15
        value += v
        error += e
        right = left
        if abs(v) + e < 0.05 * _tolerance(spec, value):
            break
    f_edge = f([right])[0]
    if not math.isfinite(f_edge):
        raise IntegrationError(f"non-finite integrand value at t={right!r}", right)
    error += (right - lo) * abs(f_edge)
    converged = error <= _tolerance(spec, value)
    return QuadratureResult(value, error, evals, converged)


def integrate_semi_infinite(
    f: Callable[[list[float]], Sequence[float]], lo: float, spec: QuadratureSpec | None = None,
    *, scale: float = 1.0, open_left: float | None = None,
) -> QuadratureResult:
    """Integrate f on [lo, inf), where f varies on the timescale ``scale``.

    The map t = lo + L x/(1-x), L = 4 scale, dt = L/(1-x)^2 dx, takes any
    tail that decays faster than 1/t to an integrable one on [0, 1); the
    segments are seeded at t = lo + m scale, m in {0.5, 2, 8, 32}.
    ``open_left`` is an offset in t, as for ``integrate_finite``.
    """
    spec = spec or QuadratureSpec()
    length = 4.0 * scale

    def g(xs: list[float]) -> list[float]:
        one_minus = [1.0 - x for x in xs]
        # An x rounded to 1.0 at floating-point resolution maps to no lag.
        values = iter(f([lo + length * x / m for x, m in zip(xs, one_minus) if m > 0.0]))
        return [next(values) * length / (m * m) if m > 0.0 else 0.0 for m in one_minus]

    # The open-left offset in x units: x_off = off/(L + off).
    return integrate_finite(
        g, 0.0, 1.0, spec, breakpoints=[m / (m + 4.0) for m in (0.5, 2.0, 8.0, 32.0)],
        open_left=None if open_left is None else open_left / (length + open_left),
    )
