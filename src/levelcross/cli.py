"""
levelcross.cli
==============

Command-line front end.  Subcommands:

* ``stats``    — closed-form statistics for one kernel and level;
* ``sweep``    — statistics over a 1D or 2D parameter grid, written as CSV
  (with ``# column [unit]`` comment annotations) and/or a JSON mirror;
* ``simulate`` — Monte Carlo estimates side-by-side with the closed forms,
  with z-scores;
* ``verify``   — the built-in oracle suites (canonical-integral equivalence,
  integral identities, zero-level cross-checks, invariances).

Exit codes: 0 success, 1 usage error, 2 numeric failure (non-convergence or
invalid kernel at compute time), 3 statistical failure (simulation z-score
above 4).  Identical flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import crossings as cr
from . import kernels as kn
from .quadrature import IntegrationError, QuadratureSpec

__all__ = ["main", "cmd_stats", "cmd_sweep", "cmd_simulate", "cmd_verify", "SweepSpec"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_STATISTICAL = 3

# Flag-level parameter schema per kernel family, in constructor order.
_FAMILY_PARAMS = {
    "sdho": ("omega0", "zeta", "theta"),
    "ou": ("sigma", "tau_f", "tau_e"),
    "rq": ("sigma", "tau", "alpha_shape"),
    "se": ("sigma", "tau"),
}

_PARAM_DEFAULTS = {
    "omega0": 1.0, "zeta": 1.0, "theta": 1.0,
    "sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0,
    "tau": 1.0, "alpha_shape": 1.0,
}

_UNITS = {
    "u": "amplitude",
    "omega0": "1/time",
    "zeta": "dimensionless",
    "theta": "amplitude^2/time^2",
    "sigma": "amplitude",
    "tau": "time",
    "tau_f": "time",
    "tau_e": "time",
    "alpha_shape": "dimensionless",
    "mean_rate": "1/time",
    "var_rate": "1/time",
    "fano": "dimensionless",
    "quad_error": "1/time",
    "converged": "boolean",
}


class UsageError(ValueError):
    pass


def _make_kernel(family: str, params: dict) -> kn.Kernel:
    make = {"sdho": kn.make_sdho, "ou": kn.make_ou_mean_revert,
            "rq": kn.make_rational_quadratic, "se": kn.make_squared_exponential}[family]
    return make(*(params[p] for p in _FAMILY_PARAMS[family]))


def _load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys use flag names."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _config_value(action: argparse.Action, key: str, raw: str):
    """A config value read as its flag's argument: its type and choices; a
    switch takes true/yes/on/1 or false/no/off/0, a repeatable flag a
    ';'-separated list."""
    if action.nargs == 0:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key!r}: expected true or false, got {raw!r}")
    many = isinstance(action, argparse._AppendAction)
    values = []
    for item in [a.strip() for a in raw.split(";") if a.strip()] if many else [raw]:
        try:
            value = action.type(item) if action.type else item
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r}: expected one of "
                             f"{', '.join(action.choices)}, got {item!r}")
        values.append(value)
    return values if many else values[0]


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve each option: explicit flag > config file > built-in default.
    A config value is read through the action of the flag with its name.
    A command with ``--kernel`` resolves the family first, then its
    parameters, which it returns; a flag for a parameter the family does
    not take is a usage error."""
    config = _load_config(args.config) if args.config else {}
    subs = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[args.command]._actions}

    def resolve(key, default):
        if getattr(args, key) is None:
            setattr(args, key, _config_value(actions[key], key, config[key]) if key in config else default)

    names = ()
    if "kernel" in actions:
        resolve("kernel", None)
        if args.kernel is None:
            raise UsageError("--kernel is required (flag or config file)")
        names = _FAMILY_PARAMS[args.kernel]
        for p in _PARAM_DEFAULTS:
            if p not in names and getattr(args, p) is not None:
                raise UsageError(f"--{p.replace('_', '-')} is not a parameter of {args.kernel!r}")
        defaults = {"kernel": args.kernel, **defaults, **{p: _PARAM_DEFAULTS[p] for p in names}}
    for key, default in defaults.items():
        resolve(key, default)
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in defaults:
        value = getattr(args, key)
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{key.replace('_', '-')} must be finite (got {value})")
    for key in ("horizon", "rel_tol", "abs_tol"):
        value = getattr(args, key, None)
        if value is not None and value <= 0.0:
            raise UsageError(f"--{key.replace('_', '-')} must be > 0 (got {value})")
    for key, least in (("jobs", 1), ("seed", 0), ("draws", 1)):
        value = getattr(args, key, least)
        if value < least:
            raise UsageError(f"--{key} must be >= {least} (got {value})")
    return {p: getattr(args, p) for p in names}


def _quad_spec(args) -> QuadratureSpec | None:
    """The tolerance flags as a spec (None if none is given)."""
    given = {key: getattr(args, key) for key in ("rel_tol", "abs_tol")
             if getattr(args, key) is not None}
    return QuadratureSpec(**given) if given else None


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _report(args, report: dict) -> None:
    """A ``stats`` or ``simulate`` report, as JSON or aligned key/value
    lines, to ``--out`` or stdout."""
    if args.json:
        text = _dumps(report)
    else:
        width = max(len(k) for k in report)
        text = "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in report.items())
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


# -- stats --------------------------------------------------------------------

_STATS_DEFAULTS = {
    "u": 0.0, "mode": "up", "horizon": None, "json": False,
    "rel_tol": None, "abs_tol": None, "out": None,
}


def cmd_stats(args) -> int:
    params = _merge(args, _STATS_DEFAULTS)
    kernel = _make_kernel(args.kernel, params)
    spec = _quad_spec(args)
    asym = cr.variance_rate_asymptotic(kernel, args.u, args.mode, spec)
    report = {
        "kernel": args.kernel,
        **params,
        "u": args.u,
        "mode": args.mode,
        "mean_rate": asym.mean,
        "var_rate": asym.variance,
        "fano": asym.fano,
        "quad_error": asym.quad_error,
        "converged": asym.quad_converged,
    }
    converged = asym.quad_converged
    if args.horizon is not None:
        fin = cr.variance_count(kernel, args.u, args.horizon, args.mode, spec)
        report.update(
            horizon=args.horizon,
            mean_count=fin.mean,
            variance_count=fin.variance,
            count_ratio=fin.variance / fin.mean if fin.mean > 0 else math.nan,
        )
        converged = converged and fin.quad_converged
    _report(args, report)
    return EXIT_OK if converged else EXIT_NUMERIC


# -- sweep --------------------------------------------------------------------

class SweepSpec:
    """A resolved sweep: kernel family, fixed params, 1-2 axes, quantities."""

    def __init__(self, family, fixed, axes, quantities, mode, spec, out, json_mirror):
        if not 1 <= len(axes) <= 2:
            raise UsageError("sweep needs 1 or 2 --axis options")
        names = [a[0] for a in axes]
        for name in names:
            if names.count(name) > 1:
                raise UsageError(f"axis {name!r} given more than once")
        for name, lo, hi, points, scale in axes:
            if points < 2:
                raise UsageError(f"axis {name!r}: need at least 2 points")
            if scale == "log" and (lo <= 0 or hi <= 0):
                raise UsageError(f"axis {name!r}: log scale needs positive bounds")
        valid = set(_FAMILY_PARAMS[family]) | {"u"}
        for name, *_ in axes:
            if name not in valid:
                raise UsageError(f"axis {name!r} not a parameter of kernel {family!r}")
        known = ("mean_rate", "var_rate", "fano")
        if not quantities or len(set(quantities)) < len(quantities) or not set(quantities) <= set(known):
            raise UsageError(f"--quantity {','.join(quantities)!r}: "
                             f"name one or more of {', '.join(known)}, each once")
        self.family = family
        self.fixed = fixed
        self.axes = axes
        self.quantities = quantities
        self.mode = mode
        self.spec = spec
        self.out = out
        self.json_mirror = json_mirror

    def grid(self) -> list[dict]:
        """Row-major point list over the axes (first axis outermost)."""
        axis_values = []
        for name, lo, hi, points, scale in self.axes:
            if scale == "log":
                vals = np.geomspace(lo, hi, points)
            else:
                vals = np.linspace(lo, hi, points)
            axis_values.append((name, [float(v) for v in vals]))
        points = [{}]
        for name, vals in axis_values:
            points = [{**p, name: v} for p in points for v in vals]
        return points


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise UsageError(
            f"bad --axis {text!r}: expected name:min:max:points[:lin|log]"
        )
    name = parts[0].replace("-", "_")
    try:
        lo, hi = float(parts[1]), float(parts[2])
        points = int(parts[3])
    except ValueError as exc:
        raise UsageError(f"bad --axis {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"bad --axis {text!r}: bounds must be finite")
    scale = parts[4] if len(parts) == 5 else "lin"
    if scale not in ("lin", "log"):
        raise UsageError(f"bad --axis {text!r}: scale must be lin or log")
    return (name, lo, hi, points, scale)


_POINT_ERRORS = (cr.ValidityError, cr.NegativeVarianceError, cr.DegenerateLagError,
                 IntegrationError, kn.KernelError, ArithmeticError)


def _sweep_kernel(task):
    """Evaluate the grid points that share one parameter set on one kernel
    (so they share its validity gate and series tables, and its levels the
    per-lag work); returns one result dict per level (NaN + flag + ``error``
    text on failure)."""
    family, params, levels, mode, quantities, spec = task
    try:
        kernel = _make_kernel(family, params)
    except _POINT_ERRORS as exc:
        return [_failed_row(quantities, exc) for _ in levels]
    rates = [None] * len(levels)
    if "var_rate" in quantities or "fano" in quantities:
        try:
            rates = cr.variance_rate_asymptotic(kernel, levels, mode, spec)
        except _POINT_ERRORS:
            pass  # level by level, so only the levels that fail get NaN rows
    return [_sweep_point(kernel, u, mode, quantities, spec, asym) for u, asym in zip(levels, rates)]


def _failed_row(quantities, exc) -> dict:
    return {**dict.fromkeys(quantities, math.nan), "quad_error": math.nan,
            "converged": False, "error": f"{type(exc).__name__}: {exc}"}


def _sweep_point(kernel, u, mode, quantities, spec, asym=None) -> dict:
    """Evaluate one grid point, given its long-time statistics ``asym`` if
    already computed; returns a result dict (NaN + flag on failure)."""
    row = {}
    try:
        if "mean_rate" in quantities:
            row["mean_rate"] = cr.mean_rate(kernel, u, mode)
        if "var_rate" in quantities or "fano" in quantities:
            if asym is None:
                asym = cr.variance_rate_asymptotic(kernel, u, mode, spec)
            if "var_rate" in quantities:
                row["var_rate"] = asym.variance
            if "fano" in quantities:
                row["fano"] = asym.fano if asym.fano is not None else math.nan
            row["quad_error"] = asym.quad_error
            row["converged"] = asym.quad_converged
        else:
            row["quad_error"] = 0.0
            row["converged"] = True
    except _POINT_ERRORS as exc:
        return _failed_row(quantities, exc)
    return row


_SWEEP_DEFAULTS = {
    "u": 0.0, "mode": "up", "quantity": "mean_rate,var_rate,fano",
    "rel_tol": None, "abs_tol": None,
    "out": "sweep.csv", "json": False, "jobs": 1, "axis": None,
}


def cmd_sweep(args) -> int:
    fixed = _merge(args, _SWEEP_DEFAULTS)
    axes = [_parse_axis(a) for a in args.axis or []]
    quantities = [q.strip() for q in args.quantity.split(",") if q.strip()]
    spec = SweepSpec(
        args.kernel, fixed, axes, quantities, args.mode, _quad_spec(args),
        args.out, args.json,
    )
    points = spec.grid()
    # One task per distinct parameter set: its points' indices, in grid order.
    groups: dict[tuple, list[int]] = {}
    for i, pt in enumerate(points):
        groups.setdefault(tuple((k, v) for k, v in pt.items() if k != "u"), []).append(i)
    tasks = [(spec.family, {**spec.fixed, **dict(key)}, [points[i].get("u", args.u) for i in indices],
              spec.mode, tuple(quantities), spec.spec) for key, indices in groups.items()]
    # A pool starts all its workers at once, so start no more than can be busy.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_sweep_kernel, tasks))
    else:
        grouped = [_sweep_kernel(t) for t in tasks]
    by_index = dict(zip(itertools.chain(*groups.values()), itertools.chain(*grouped)))
    results = [by_index[i] for i in range(len(points))]

    axis_names = [a[0] for a in spec.axes]
    columns = axis_names + [q for q in quantities] + ["quad_error", "converged"]
    rows = [
        {**{n: pt[n] for n in axis_names}, **{c: res.get(c) for c in columns if c not in pt}}
        for pt, res in zip(points, results)
    ]
    any_failed = not all(row["converged"] for row in rows)
    for pt, res in zip(points, results):
        if "error" in res:  # the row raised; its values are NaN
            where = ", ".join(f"{n}={_fmt(pt[n])}" for n in axis_names)
            sys.stderr.write(f"sweep row {where}: {res['error']}\n")

    if spec.out.endswith(".json"):
        _write(spec.out, _dumps(rows))
    else:
        csv_lines = [f"# {col} [{_UNITS.get(col, 'unknown')}]" for col in columns]
        csv_lines.append(",".join(columns))
        csv_lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        _write(spec.out, "\n".join(csv_lines) + "\n")
        if spec.json_mirror:
            _write(spec.out.rsplit(".", 1)[0] + ".json", _dumps(rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {spec.out}\n")
    return EXIT_NUMERIC if any_failed else EXIT_OK


# -- simulate -----------------------------------------------------------------

_SIM_DEFAULTS = {
    "u": 0.0, "mode": "up", "horizon": 100.0, "trials": 1000, "seed": 0,
    "dt_factor": 0.01, "json": False,
    "rel_tol": None, "abs_tol": None, "out": None,
}


def cmd_simulate(args) -> int:
    params = _merge(args, _SIM_DEFAULTS)
    kernel = _make_kernel(args.kernel, params)
    spec = _quad_spec(args)
    dt = args.dt_factor * kernel.tau_slow
    from . import montecarlo as mc  # scipy.integrate and scipy.linalg load with it
    window = dict(T=args.horizon, dt=dt, trials=args.trials, seed=args.seed,
                  u=args.u, mode=args.mode)
    try:
        if args.kernel in ("sdho", "ou"):  # linear systems: exact step propagation
            config = mc.SimConfig(system=args.kernel, params=params, **window)
        else:
            config = mc.SimConfig(system="kernel", kernel=kernel, **window)
        est = mc.estimate_stats(config)
    except mc.SimulationConfigError as exc:
        raise UsageError(str(exc)) from exc
    analytic = cr.variance_count(kernel, args.u, args.horizon, args.mode, spec)
    asym = cr.variance_rate_asymptotic(kernel, args.u, args.mode, spec)
    z_mean = (est.mean - analytic.mean) / est.se_mean if est.se_mean > 0 else math.inf
    z_var = (est.variance - analytic.variance) / est.se_variance if est.se_variance > 0 else math.inf
    fano_analytic = asym.fano if asym.fano is not None else math.nan
    z_fano = (est.fano - fano_analytic) / est.se_fano if est.se_fano > 0 else math.inf
    report = {
        "kernel": args.kernel, **params, "u": args.u, "mode": args.mode,
        "horizon": args.horizon, "dt": dt, "trials": args.trials, "seed": args.seed,
        "mean_analytic": analytic.mean, "mean_simulated": est.mean,
        "mean_se": est.se_mean, "mean_z": z_mean,
        "variance_analytic": analytic.variance, "variance_simulated": est.variance,
        "variance_se": est.se_variance, "variance_z": z_var,
        "fano_analytic_asymptotic": fano_analytic, "fano_simulated": est.fano,
        "fano_se": est.se_fano, "fano_z": z_fano,
    }
    _report(args, report)
    # Fano compares a finite-horizon estimate to the asymptotic value, so it
    # carries a bias at moderate horizons; mean and variance are exact matches.
    if abs(z_mean) > 4.0 or abs(z_var) > 4.0:
        return EXIT_STATISTICAL
    return EXIT_OK


# -- verify -------------------------------------------------------------------

_VERIFY_DEFAULTS = {"seed": 0, "draws": 50}


def _verify_canonical(seed: int, draws: int) -> tuple[bool, str]:
    from . import montecarlo as mc
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        g = rng.uniform(-3.0, 3.0)
        bu, bt = mc.bruteforce_theorem_integrals(a, b, g)
        cu = mc.theorem_up_closed_form(a, b, g)
        ct = mc.theorem_total_closed_form(a, b, g)
        worst = max(
            worst,
            abs(bu - cu) / max(abs(cu), 1e-30),
            abs(bt - ct) / max(abs(ct), 1e-30),
        )
    return worst <= 1e-9, f"worst rel {worst:.3e} over {draws} draws"


def _verify_lemmas(seed: int, draws: int) -> tuple[bool, str]:
    from . import montecarlo as mc
    residuals = mc.lemma_residuals(seed=seed, draws=draws)
    worst = max(residuals.values())
    return worst <= 1e-9, f"worst rel {worst:.3e} over {len(residuals)} identities"


def _builtin_kernels():
    return [
        kn.make_sdho(1.0, 0.5, 1.0),
        kn.make_sdho(1.0, 1.0, 1.0),
        kn.make_sdho(1.0, 2.5, 1.0),
        kn.make_ou_mean_revert(1.0, 0.5, 1.0),
        kn.make_rational_quadratic(1.0, 1.0, 2.0),
        kn.make_squared_exponential(1.0, 1.0),
    ]


def _verify_zero_level(seed: int, draws: int) -> tuple[bool, str]:
    worst = 0.0
    for kernel in _builtin_kernels():
        for mode in (cr.CrossingMode.UP, cr.CrossingMode.TOTAL):
            special = cr.zero_level_stats(kernel, None, mode)
            general = cr.variance_rate_asymptotic(kernel, 0.0, mode)
            for s, g in ((special.mean, general.mean),
                         (special.variance, general.variance),
                         (special.fano, general.fano)):
                worst = max(worst, abs(s - g) / max(abs(g), 1e-30))
    return worst <= 1e-10, f"worst rel {worst:.3e}"


def _verify_invariance(seed: int, draws: int) -> tuple[bool, str]:
    problems = []
    # Timescale independence of the Fano factor.
    for make in (lambda tau: kn.make_squared_exponential(1.0, tau),
                 lambda tau: kn.make_rational_quadratic(1.0, tau, 2.0)):
        ref = cr.fano(make(1.0), 0.7)
        for tau in (0.5, 7.0):
            dev = abs(cr.fano(make(tau), 0.7) - ref)
            if dev > 1e-8:
                problems.append(f"tau-dependence {dev:.2e}")
    # u-sign symmetry.
    k = kn.make_sdho(1.0, 0.7, 1.0)
    for u in (0.3, 1.2):
        dev = abs(cr.fano(k, u) - cr.fano(k, -u))
        if dev > 1e-10:
            problems.append(f"u-sign asymmetry {dev:.2e}")
    # alpha/beta positivity on random draws.
    rng = np.random.default_rng(seed)
    kernels = _builtin_kernels()
    for _ in range(max(draws * 4, 100)):
        kernel = kernels[rng.integers(len(kernels))]
        t = float(rng.uniform(1e-4, 20.0)) * kernel.tau_slow
        try:
            pr = cr.abg_params(kernel, float(rng.uniform(-2, 2)), t)
        except cr.DegenerateLagError:
            continue
        if pr.alpha <= 0 or pr.beta <= 0:
            problems.append(f"non-positive alpha/beta at t={t}")
    # Bi-exponential correlation: OU system vs matched overdamped oscillator.
    ou = kn.make_ou_mean_revert(1.0, 0.5, 1.0)
    dev = abs(cr.fano(ou, 0.4) - cr.fano(kn.map_ou_to_sdho(ou), 0.4))
    if dev > 1e-8:
        problems.append(f"ou/oscillator mismatch {dev:.2e}")
    return not problems, "; ".join(problems) if problems else "all invariances hold"


def cmd_verify(args) -> int:
    _merge(args, _VERIFY_DEFAULTS)
    suites = [
        ("canonical-integrals", _verify_canonical),
        ("integral-identities", _verify_lemmas),
        ("zero-level-crosscheck", _verify_zero_level),
        ("invariance", _verify_invariance),
    ]
    all_ok = True
    for name, fn in suites:
        ok, detail = fn(args.seed, args.draws)
        all_ok &= ok
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse usage errors to exit code 1
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--kernel", choices=_FAMILY_PARAMS)
    for p in sorted(_PARAM_DEFAULTS):
        sub.add_argument(f"--{p.replace('_', '-')}", dest=p, type=float)
    sub.add_argument("--u", type=float)
    sub.add_argument("--mode", choices=("up", "down", "total"))
    sub.add_argument("--rel-tol", dest="rel_tol", type=float,
                     help="relative tolerance of the excess lag integral (default 1e-9), not of F")
    sub.add_argument("--abs-tol", dest="abs_tol", type=float,
                     help="absolute tolerance of the excess lag integral in 1/time (default 1e-12)")
    sub.add_argument("--json", action="store_const", const=True)
    sub.add_argument("--out")
    sub.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levelcross",
                     description="Exact level-crossing statistics for stationary "
                                 "Gaussian processes.")
    subs = parser.add_subparsers(dest="command", required=True)

    stats = subs.add_parser("stats", help="closed-form statistics for one point")
    _add_common(stats)
    stats.add_argument("--horizon", type=float)
    stats.set_defaults(func=cmd_stats)

    sweep = subs.add_parser("sweep", help="statistics over a parameter grid")
    _add_common(sweep)
    sweep.add_argument("--axis", action="append",
                       help="name:min:max:points[:lin|log], repeatable (max 2)")
    sweep.add_argument("--quantity",
                       help="comma list from mean_rate,var_rate,fano")
    sweep.add_argument("--jobs", type=int,
                       help="worker processes, at most one per parameter set or CPU; "
                            "one runs in-process")
    sweep.set_defaults(func=cmd_sweep)

    sim = subs.add_parser("simulate", help="Monte Carlo vs closed forms")
    _add_common(sim)
    sim.add_argument("--horizon", type=float)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--dt-factor", dest="dt_factor", type=float)
    sim.set_defaults(func=cmd_simulate)

    verify = subs.add_parser("verify", help="run the oracle suites")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--draws", type=int)
    verify.add_argument("--config")
    verify.set_defaults(func=cmd_verify)
    return parser


# Built on first use and reused by every later main() call in the process;
# parsing leaves no state on the parser.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, kn.KernelError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (cr.ValidityError, cr.NegativeVarianceError, cr.DegenerateLagError,
            IntegrationError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
