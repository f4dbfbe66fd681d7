"""Per-layer counters for the traced run.

The benchmark's own code wraps the program's public names where the program
looks them up (module attributes of ``levelcross.crossings`` and the
``Kernel.eval`` method) and times every call in thread CPU time.  Nothing in
the program changes.  A name that a later version no longer has is reported
as absent; its metrics read 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

from levelcross import crossings, kernels

# abg_params takes its short-lag series path below this multiple of the
# kernel's series_scale (crossings._SERIES_FRACTION).
SERIES_FRACTION = 0.1

_CROSSINGS_NAMES = ("owens_t", "abg_params", "integrand_up", "integrand_total",
                    "check_validity", "integrate_finite", "integrate_semi_infinite",
                    "variance_rate_asymptotic")

# name: unit
PER_LAYER = {
    "special.owens_t_calls_per_op": "count",
    "special.owens_t_us_per_call": "us",
    "kernels.eval_calls_per_op": "count",
    "kernels.eval_us_per_call": "us",
    "kernels.gate_ms_per_op": "cpu_ms",
    "crossings.weak_us_per_call": "us",
    "crossings.series_us_per_call": "us",
    "crossings.direct_us_per_call": "us",
    "crossings.weak_call_share": "fraction",
    "quadrature.evals_per_op": "count",
    "quadrature.self_us_per_eval": "us",
    "cli.self_ms_per_op": "cpu_ms",
    "montecarlo.paths_ms_per_op": "cpu_ms",
    "montecarlo.count_ms_per_op": "cpu_ms",
    "montecarlo.bootstrap_ms_per_op": "cpu_ms",
    "montecarlo.trial_steps_per_s": "1/cpu_s",
}


class Tracer:
    """Call counts and inclusive thread CPU time of the wrapped layers."""

    clock = staticmethod(time.thread_time)

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.mc = defaultdict(float)      # filled by MonteCarlo.traced
        self.op_seconds = 0.0             # the timed operations themselves
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def _count(self, key: str, start: float) -> None:
        self.calls[key] += 1
        self.seconds[key] += self.clock() - start

    def _timed(self, key: str, fn):
        clock, count = self.clock, self._count

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                count(key, start)
        return wrapper

    def _abg(self, fn):
        clock, count = self.clock, self._count

        def wrapper(kernel, u, t, *args, **kwargs):
            key = "abg_series" if t < SERIES_FRACTION * kernel.series_scale else "abg_direct"
            start = clock()
            try:
                return fn(kernel, u, t, *args, **kwargs)
            finally:
                count(key, start)
        return wrapper

    def _integrand(self, fn):
        """Counts the calls that never reach abg_params as weak-correlation calls."""
        clock, count, calls = self.clock, self._count, self.calls

        def wrapper(*args, **kwargs):
            before = calls["abg_series"] + calls["abg_direct"]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                count("integrand", start)
                if calls["abg_series"] + calls["abg_direct"] == before:
                    count("weak", start)
        return wrapper

    def _integrate(self, fn):
        """Times the integrator, and the integrand it is handed, per evaluation."""
        clock, count = self.clock, self._count
        timed_f = self._timed

        def wrapper(f, *args, **kwargs):
            start = clock()
            try:
                return fn(timed_f("quad_eval", f), *args, **kwargs)
            finally:
                count("integrate", start)
        return wrapper

    def install(self) -> None:
        makers = {"abg_params": self._abg, "integrand_up": self._integrand,
                  "integrand_total": self._integrand, "integrate_finite": self._integrate,
                  "integrate_semi_infinite": self._integrate}
        for name in _CROSSINGS_NAMES:
            if not hasattr(crossings, name):
                self.absent.append(f"crossings.{name}")
                continue
            original = getattr(crossings, name)
            make = makers.get(name, lambda fn, name=name: self._timed(name, fn))
            self._saved.append((crossings, name, original))
            setattr(crossings, name, make(original))
        original = kernels.Kernel.eval
        self._saved.append((kernels.Kernel, "eval", original))
        kernels.Kernel.eval = self._timed("eval", original)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def metrics(self, ops: int, sweep: bool) -> dict[str, float]:
        """Per-layer metrics over ops timed operations; sweep says whether
        each operation was a ``levelcross sweep``."""
        c, s, m = self.calls, self.seconds, self.mc

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        evals = c["quad_eval"]
        return {
            "special.owens_t_calls_per_op": per(c["owens_t"], ops),
            "special.owens_t_us_per_call": per(s["owens_t"], c["owens_t"], 1e6),
            "kernels.eval_calls_per_op": per(c["eval"], ops),
            "kernels.eval_us_per_call": per(s["eval"], c["eval"], 1e6),
            "kernels.gate_ms_per_op": per(s["check_validity"], ops, 1e3),
            "crossings.weak_us_per_call": per(s["weak"], c["weak"], 1e6),
            "crossings.series_us_per_call": per(s["abg_series"], c["abg_series"], 1e6),
            "crossings.direct_us_per_call": per(s["abg_direct"], c["abg_direct"], 1e6),
            "crossings.weak_call_share": per(c["weak"], c["integrand"]),
            "quadrature.evals_per_op": per(evals, ops),
            "quadrature.self_us_per_eval": per(s["integrate"] - s["quad_eval"], evals, 1e6),
            "cli.self_ms_per_op": (per(self.op_seconds - s["variance_rate_asymptotic"], ops, 1e3)
                                   if sweep else 0.0),
            "montecarlo.paths_ms_per_op": per(m["paths"], ops, 1e3),
            "montecarlo.count_ms_per_op": per(m["counts"] - m["paths"], ops, 1e3),
            "montecarlo.bootstrap_ms_per_op": per(m["full"] - m["counts"], ops, 1e3),
            "montecarlo.trial_steps_per_s": per(m["trial_steps"], m["full"]),
        }
