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
(``crossings._lag_integral``).

Everything is deterministic: fixed node sets, worst-interval-first
bisection, no randomness.

The integrator is written once, as a generator (``_quadrature``): it yields
the panels it needs (the breakpoint segments, the two halves of a bisected
panel, each open-left stub panel, the stub's edge point) and is sent back
their (Kronrod value, error estimate) pairs.  Each range has one driver:

* ``integrate_finite`` calls ``f(nodes)`` once per panel, in order, with a
  list of abscissae (the 15 nodes of one Gauss-Kronrod panel, or the single
  edge point) and takes a sequence of as many values back, so an integrand
  can share work across a panel's nodes; a function of one abscissa joins
  through ``pointwise``;
* ``integrate_semi_infinite_rows`` runs one generator per integrand of a
  family (the levels of a sweep row, or a row of one) in lockstep rounds:
  one f call per round gives every row's values at every panel that some
  row asks for and no earlier round gave.  Round 0 also prefetches the stub
  panels that every row asks for one at a time later, so a row of nine
  levels takes a handful of f calls; if that call raises, round 0 evaluates
  the requested panels alone and drops the prefetch.

Either way the values are summed in a fixed order (``_weigh``), as floats or
as arrays with the same bits, and the first non-finite one, in node order,
raises ``IntegrationError``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "IntegrationError",
    "integrate_finite",
    "integrate_semi_infinite_rows",
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
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0 (got {getattr(self, name)})")
        if not isinstance(self.max_subdivisions, numbers.Integral) or self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be an integer >= 1 (got {self.max_subdivisions!r})")


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


def _nodes(a: float, b: float) -> list[float]:
    """The 15 Gauss-Kronrod nodes of the panel [a, b], center first, then
    the pairs in ``_XGK`` order; a == b asks for the single point a."""
    if a == b:
        return [a]
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [center]
    for x in _XGK[:7]:
        dx = half * x
        nodes += (center - dx, center + dx)
    return nodes


def _weigh(values, half):
    """(Kronrod value, error estimate) of a panel of half-width ``half`` from
    its 15 values in node order.  The values are floats, or arrays (one
    element per integrand or per panel) with ``half`` a float or an array
    that broadcasts with them; either way every element gets the same bits,
    because the sum runs in the same order."""
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


def _gk15(f: Callable[[list[float]], Sequence[float]], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15-point panel: returns (kronrod value, error
    estimate); for a == b, the value of f at a and 0."""
    nodes = _nodes(a, b)
    values = f(nodes)
    if not all(map(math.isfinite, values)):
        t = next(t for t, v in zip(nodes, values) if not math.isfinite(v))
        raise IntegrationError(f"non-finite integrand value at t={t!r}", t)
    if a == b:
        return values[0], 0.0
    return _weigh(values, 0.5 * (b - a))


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def _split_segments(lo: float, hi: float, breakpoints) -> list[tuple[float, float]]:
    edges = [lo, *sorted(p for p in breakpoints if lo < p < hi), hi]
    return list(zip(edges, edges[1:]))


def _stub_edge(lo: float, hi: float, open_left: float) -> float:
    """Where the adaptive pass of an open-left integral starts."""
    return lo + min(open_left, 1e-3 * (hi - lo))


def _halvings(lo: float, right: float):
    """The open-left stub's panels, each half as far from lo as the last."""
    while (left := lo + 0.5 * (right - lo)) < right:
        yield left, right
        right = left


def _quadrature(lo: float, hi: float, spec: QuadratureSpec, breakpoints=(),
                open_left: float | None = None):
    """The integrator, as a generator.  It yields lists of panels (a, b) and
    is sent back each panel's (Kronrod value, error estimate), in order; a
    panel a == b asks for the integrand's value at a.  It returns the
    ``QuadratureResult``.

    Worst-first bisection over the segments that ``breakpoints`` cut [lo, hi]
    into.  With an ``open_left`` offset > 0 that pass runs on
    [lo + offset, hi] at half the tolerance; then geometric panels shrink
    toward lo, and the final unresolved stub is bounded by its width times
    |f| at its right edge and folded into the error estimate, so f is never
    evaluated at lo.
    """
    main_spec = spec
    right = lo
    if open_left is not None:
        right = _stub_edge(lo, hi, open_left)
        # Half the tolerance, so the endpoint panels and the stub bound
        # cannot push the total over budget.
        main_spec = replace(spec, rel_tol=0.5 * spec.rel_tol, abs_tol=0.5 * spec.abs_tol)
    segments = _split_segments(right, hi, breakpoints)
    heap: list[tuple[float, int, float, float, float, float]] = []
    value = 0.0
    error = 0.0
    tie = 0  # tie-breaker keeps heap ordering deterministic
    for (a, b), (v, e) in zip(segments, (yield segments)):
        value += v
        error += e
        heapq.heappush(heap, (-e, tie, a, b, v, e))
        tie += 1
    evals = 15 * len(segments)
    subdivisions = len(segments)
    exhausted = False
    while True:
        while error > _tolerance(main_spec, value) and subdivisions < main_spec.max_subdivisions:
            neg_e, _, a, b, v, e = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval at floating-point resolution
                heapq.heappush(heap, (0.0, tie, a, b, v, e))
                tie += 1
                if all(item[0] == 0.0 for item in heap):
                    exhausted = True
                    break
                continue
            (v1, e1), (v2, e2) = yield [(a, mid), (mid, b)]
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
        if (error <= _tolerance(main_spec, value) or exhausted
                or subdivisions >= main_spec.max_subdivisions):
            break
    if open_left is not None:
        for panel in itertools.islice(_halvings(lo, right), 60):
            [(v, e)] = yield [panel]
            evals += 15
            value += v
            error += e
            right = panel[0]
            if abs(v) + e < 0.05 * _tolerance(spec, value):
                break
        [(f_edge, _)] = yield [(right, right)]
        error += (right - lo) * abs(f_edge)
    return QuadratureResult(value, error, evals, error <= _tolerance(spec, value))


def _drive(f: Callable[[list[float]], Sequence[float]], quadrature) -> QuadratureResult:
    """Run one ``_quadrature`` generator on f, one f call per panel, in order."""
    request = next(quadrature)
    while True:
        try:
            request = quadrature.send([_gk15(f, a, b) for a, b in request])
        except StopIteration as done:
            return done.value


def integrate_finite(
    f: Callable[[list[float]], Sequence[float]], lo: float, hi: float,
    spec: QuadratureSpec | None = None, *, open_left: float | None = None, breakpoints=(),
) -> QuadratureResult:
    """Integrate f on [lo, hi], seeding the segments at the interior
    ``breakpoints``.  With an ``open_left`` offset > 0 it integrates on
    (lo, hi] and never evaluates f at lo."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    return _drive(f, _quadrature(lo, hi, spec or QuadratureSpec(), breakpoints, open_left))


# The segments of the tail map start at t = lo + m scale, m in {0.5, 2, 8, 32}.
_TAIL_BREAKS = tuple(m / (m + 4.0) for m in (0.5, 2.0, 8.0, 32.0))


# A row's first round also evaluates this many halvings of the open-left stub,
# and their edge points: every row asks for the same ones, one at a time.
_ROUND0_STUB = 14


def integrate_semi_infinite_rows(
    f: Callable[[np.ndarray], np.ndarray], rows: int, lo: float,
    spec: QuadratureSpec | None = None, *, scale: float = 1.0, open_left: float | None = None,
) -> list[QuadratureResult]:
    """Integrate ``rows`` integrands on [lo, inf), where they vary on the
    timescale ``scale``: f takes an array of abscissae and returns a (rows,
    abscissae) array.  ``open_left`` is an offset in t, as for
    ``integrate_finite``.

    The map t = lo + L x/(1-x), L = 4 scale, dt = L/(1-x)^2 dx, takes any
    tail that decays faster than 1/t to an integrable one on [0, 1); the
    segments are seeded at t = lo + m scale, m in {0.5, 2, 8, 32}.  Each row
    keeps its own adaptive mesh, and its result does not depend on the other
    rows, bit for bit.  Each round evaluates every panel that a row asks for
    and the table lacks with one f call, and forms every row's sums as
    arrays (``_weigh``).  Round 0 also evaluates the first ``_ROUND0_STUB``
    halvings of the open-left stub and their edge points; if that call
    raises ``ArithmeticError`` or ``ValueError``, round 0 evaluates the
    requested panels alone.  Any other call raises what f raises, and a
    non-finite value anywhere in it raises ``IntegrationError``.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0 (got {scale})")
    length = 4.0 * scale
    x_off = None if open_left is None else open_left / (length + open_left)  # in x units
    spec = spec or QuadratureSpec()
    quadratures = [_quadrature(0.0, 1.0, spec, _TAIL_BREAKS, x_off) for _ in range(rows)]
    requests = [next(q) for q in quadratures]
    extra = []
    if rows and x_off is not None:
        extra = list(itertools.islice(_halvings(0.0, _stub_edge(0.0, 1.0, x_off)), _ROUND0_STUB))
        extra += [(a, a) for a, _ in extra]
    table: dict[tuple[float, float], list[tuple[float, float]]] = {}  # panel -> each row's pair
    results: list[QuadratureResult | None] = [None] * rows
    live = list(range(rows))
    while live:
        wanted = itertools.chain(extra, *(requests[k] for k in live))
        new = [panel for panel in dict.fromkeys(wanted) if panel not in table]
        if new:
            try:
                table.update(_row_panels(f, rows, new, lo, length))
            except (ArithmeticError, ValueError):
                if not extra:
                    raise
                # A prefetched panel failed, maybe where no row asks: drop the prefetch.
                asked = set(itertools.chain(*(requests[k] for k in live)))
                table.update(_row_panels(f, rows, [p for p in new if p in asked], lo, length))
        extra = []
        running = []
        for k in live:
            try:
                requests[k] = quadratures[k].send([table[panel][k] for panel in requests[k]])
            except StopIteration as done:
                results[k] = done.value
            else:
                running.append(k)
        live = running
    return results


def _row_panels(f, rows: int, panels: list[tuple[float, float]], lo: float, length: float):
    """(panel, [(Kronrod value, error estimate) of each row]) for every
    panel, from one f call on the tail map's lags."""
    panels = sorted(panels, key=lambda panel: panel[0] == panel[1])  # the points last
    xs = np.array([x for a, b in panels for x in _nodes(a, b)])
    one_minus = 1.0 - xs
    inside = one_minus > 0.0  # an x rounded to 1.0 maps to no lag
    lags = lo + length * xs[inside] / one_minus[inside]
    values = np.zeros((rows, len(xs)))
    if lags.size:
        values[:, inside] = f(lags) * length / (one_minus[inside] * one_minus[inside])
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        t = float(lags[~finite[inside]][0])  # the points outside hold 0
        raise IntegrationError(f"non-finite integrand value at t={t!r}", t)
    n = sum(a < b for a, b in panels)
    halves = np.array([0.5 * (b - a) for a, b in panels[:n]])
    # The panels' values in node order, each over (rows, panels).
    kron, error = _weigh(values[:, :15 * n].reshape(rows, n, 15).transpose(2, 0, 1), halves)
    points = values[:, 15 * n:]
    pairs = [*zip(kron.T.tolist(), error.T.tolist()),
             *zip(points.T.tolist(), np.zeros_like(points).T.tolist())]
    return zip(panels, (list(zip(k, e)) for k, e in pairs))
