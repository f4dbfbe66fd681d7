"""Write tests/data/tail_reference.json: long-time rates of power-law kernels
from an integrator that shares nothing with the statistics' own.

    PYTHONPATH=src python3 tests/data/make_tail_reference.py [--check]

Each case is the long-time variance rate of ``rational_quadratic`` with
sigma = tau = 1 and alpha in {0.55, 0.75, 1, 2}, at u/sigma in {0, 0.5, 1.5,
3}, up and total.  The excess integral is scipy ``quad`` (QUADPACK) at
epsrel 1e-13 on ``integrand_up`` or ``integrand_total`` over [0, 1e7 tau],
cut at 0.1 tau and its doublings, plus the excess's linear term past
1e7 tau in closed form: Lin = A (m0 v^2 rho + m3 kappa), whose integral is
A (m0 v^2 R + m3 p) at 1e7 tau, with R from ``scipy.special.betainc``.  The
rest of the tail, I - Lin, decays like rho^2 ~ t^(-4 alpha), so its integral
past 1e7 tau is (I - Lin)(1e7 tau) 1e7 tau/(4 alpha - 1) up to terms 1e-7
smaller at alpha = 0.55; it is added too (1e-9 of the rate at alpha = 0.55
and u = 0).  The recorded error is twice the sum of ``quad``'s error
estimates and of 1e-3 of that rest.  It takes about a second.
``--check`` writes nothing: it computes every case again, lists every one
that differs from this file and exits 1 (0 if every case matches).
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import _golden
from scipy.integrate import IntegrationWarning, quad
from scipy.special import beta, betainc

from levelcross import crossings as cr
from levelcross import kernels as kn

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "tail_reference.json")

ALPHAS = (0.55, 0.75, 1.0, 2.0)
LEVELS = (0.0, 0.5, 1.5, 3.0)  # u/sigma
END = 1e7  # the end of quad's range, in tau
QUAD_RTOL = 1e-13


def _m(total: bool) -> tuple[float, float]:
    """(m0, m3): (1/(2 pi), 1/4) up, (2/pi, 0) total."""
    return (2.0 / math.pi, 0.0) if total else (1.0 / (2.0 * math.pi), 0.25)


def linear_tail(alpha: float, u: float, total: bool, t: float) -> float:
    """int_t^inf Lin for rational_quadratic(1, 1, alpha), where r0 = q0 = 1:
    A (m0 u^2 int_t^inf r + m3 r'(t)) with A = e^{-u^2}/(2 pi), since
    int_t^inf q = int_t^inf -r'' = r'(t)."""
    a = math.exp(-u * u) / (2.0 * math.pi)
    m0, m3 = _m(total)
    c = 2.0 * alpha
    base = 1.0 + t * t / c
    int_r = 0.5 * math.sqrt(c) * beta(alpha - 0.5, 0.5) * betainc(alpha - 0.5, 0.5, 1.0 / base)
    p = -t * base ** (-alpha - 1.0)
    return a * (m0 * u * u * int_r + m3 * p)


def reference(alpha: float, u: float, total: bool) -> dict:
    """The variance rate, its error and the mean rate of one case."""
    kernel = kn.make_rational_quadratic(1.0, 1.0, alpha)
    integrand = cr.integrand_total if total else cr.integrand_up
    edges = [0.0, 0.1]
    while edges[-1] < END:
        edges.append(min(2.0 * edges[-1], END))
    value = error = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # its error estimate is recorded
        for a, b in zip(edges, edges[1:]):
            v, e = quad(lambda t: integrand(kernel, u, t), a, b, epsabs=0.0, epsrel=QUAD_RTOL,
                        limit=200)
            value += v
            error += e
    value += linear_tail(alpha, u, total, END)
    d = kernel.eval(END)
    m0, m3 = _m(total)
    lin = math.exp(-u * u) / (2.0 * math.pi) * (m0 * u * u * d.r + m3 * d.q)
    rest = (integrand(kernel, u, END) - lin) * END / (4.0 * alpha - 1.0)
    value += rest
    error += 1e-3 * abs(rest)
    mean = cr.mean_rate(kernel, u, "total" if total else "up")
    return {"mean": mean, "variance": float(mean + 2.0 * value), "error": float(2.0 * error)}


def compute() -> list[dict]:
    return [{"case": f"rq alpha={alpha} u={u} {mode}",
             "values": reference(alpha, u, mode == "total")}
            for alpha in ALPHAS for u in LEVELS for mode in ("up", "total")]


def name(case: dict) -> str:
    return case["case"]


if __name__ == "__main__":
    sys.exit(_golden.main(sys.argv[1:], GOLDEN, compute, name))
