"""References for the benchmark's checks, computed apart from the program.

* The mean crossing rate from the Rice formula, with r(0) and -r''(0)
  taken from each kernel family's parameters in closed form here, not from
  the kernel object.
* Variances by QUADPACK (``scipy.integrate.quad``) on the program's public
  excess integrands ``integrand_up`` / ``integrand_total``, panel by panel,
  instead of the program's own Gauss-Kronrod integrator.  The tail past the
  last panel is handled analytically: exponentially decaying kernels are
  integrated to 60 decay times, where the correlations are below e^-60; a
  power-law tail is fitted as c t^s on the last decade and integrated in
  closed form.
* The expected number of sign changes of a sampled stationary path,
  n (Phi(h) - Phi_2(h, h; rho)) per up-crossing, from ``scipy.stats``.

Run as a script, it makes the references of one run's checked subset anew
and prints them, one JSON object per line (see README.md):

    python3 perfbench/references.py --workload stats_mix --seed 1 --rounds 2
"""

from __future__ import annotations

import math
import os
import sys

if __name__ == "__main__":  # run as a script: the program's sources sit beside
    _here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(_here), "src"), _here]

from scipy.integrate import quad  # noqa: E402

from levelcross import crossings  # noqa: E402

QUAD_RTOL = 1e-11


def moments(family: str, params: dict) -> tuple[float, float]:
    """r(0) and -r''(0) of a kernel family, from its parameters."""
    if family == "sdho":
        return params["theta"] / params["omega0"] ** 2, params["theta"]
    if family == "ou_mean_revert":
        kappa = params["tau_f"] / params["tau_e"]
        s2 = params["sigma"] ** 2
        return s2 * kappa / (1.0 + kappa), s2 / ((1.0 + kappa) * params["tau_e"] ** 2)
    if family in ("squared_exponential", "rational_quadratic"):
        s2 = params["sigma"] ** 2
        return s2, s2 / params["tau"] ** 2
    raise ValueError(f"no closed-form moments for family {family!r}")


def mean_rate(kernel, u: float, mode: str) -> float:
    """Rice's mean crossing rate of level u."""
    r0, q0 = moments(kernel.family, kernel.params)
    rate = math.sqrt(q0 / r0) / (2.0 * math.pi) * math.exp(-u * u / (2.0 * r0))
    return 2.0 * rate if mode == "total" else rate


def _excess_integral(kernel, u: float, mode: str, horizon: float | None) -> tuple[float, float]:
    """int_0^L w(t) I(t) dt by QUADPACK, with w = 1 - t/T for a finite window.

    Returns (value, error estimate).  L is the window, or for the long-time
    rate 60 decay times plus the analytic tail of a power-law kernel.
    """
    integrand = crossings.integrand_total if mode == "total" else crossings.integrand_up
    tau = kernel.tau_slow
    power_law = kernel.family == "rational_quadratic"
    if horizon is not None:
        hi = horizon
    else:
        hi = (1e4 if power_law else 60.0) * tau
    # Panels at doubling multiples of the decay time keep every panel's
    # integrand smooth on its own scale.
    edges = [0.0] + [m * tau for m in (0.1, 0.5) if m * tau < hi]
    mult = 1.0
    while mult * tau < hi:
        edges.append(mult * tau)
        mult *= 2.0
    edges.append(hi)
    if horizon is None:
        def f(t):
            return integrand(kernel, u, t)
    else:
        def f(t):
            return (1.0 - t / horizon) * integrand(kernel, u, t)
    value = error = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = quad(f, a, b, epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
        value += v
        error += e
    if horizon is None and power_law:
        # I(t) ~ c t^s on the last decade; its tail integral is -I(L) L/(s+1).
        end, before = f(hi), f(0.1 * hi)
        slope = math.log(end / before) / math.log(10.0)
        tail = -end * hi / (slope + 1.0)
        value += tail
        # The next term of the tail's expansion is down by about (tau/L)^2.
        error += abs(tail) * 1e-3
    return value, error


def variance(kernel, u: float, mode: str, horizon: float | None = None) -> tuple[float, float, float]:
    """(mean, variance, error of the variance) of the count over a window,
    or the long-time rates when horizon is None."""
    rate = mean_rate(kernel, u, mode)
    value, error = _excess_integral(kernel, u, mode, horizon)
    if horizon is None:
        return rate, rate + 2.0 * value, 2.0 * error
    return rate * horizon, rate * horizon + 2.0 * horizon * value, 2.0 * horizon * error


def sampled_mean(n_steps: int, h: float, rho: float, mode: str) -> float:
    """Expected sign changes of n_steps sample pairs with lag correlation rho.

    An up-crossing of a pair (X0, X1) is X0 < h <= X1, whose probability
    Phi(h) - Phi_2(h, h; rho) is integrated over X0 to full precision.
    """
    from scipy.stats import norm

    s = math.sqrt(1.0 - rho * rho)
    p, _ = quad(lambda x: norm.pdf(x) * norm.sf((h - rho * x) / s), -math.inf, h,
                epsabs=0.0, epsrel=1e-12, limit=200)
    return n_steps * p * (2.0 if mode == "total" else 1.0)


def _main() -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase_plane", "stats_mix", "monte_carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, out_dir=None)
    for r in range(args.rounds):
        for line in work.references(r):
            sys.stdout.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
