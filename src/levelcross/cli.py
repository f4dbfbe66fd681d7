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
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import crossings as cr
from . import kernels as kn
from . import montecarlo as mc
from .quadrature import IntegrationError, QuadratureSpec

__all__ = ["main", "cmd_stats", "cmd_sweep", "cmd_simulate", "cmd_verify", "SweepSpec"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_STATISTICAL = 3

_FAMILIES = ("sdho", "ou", "rq", "se")

# Flag-level parameter schema per kernel family (flag name -> constructor arg).
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
    if family == "sdho":
        return kn.make_sdho(params["omega0"], params["zeta"], params["theta"])
    if family == "ou":
        return kn.make_ou_mean_revert(params["sigma"], params["tau_f"], params["tau_e"])
    if family == "rq":
        return kn.make_rational_quadratic(params["sigma"], params["tau"], params["alpha_shape"])
    if family == "se":
        return kn.make_squared_exponential(params["sigma"], params["tau"])
    raise UsageError(f"unknown kernel family {family!r}")


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


# Coercions for options whose built-in default is None (type not inferable).
_OPTION_TYPES = {
    "rel_tol": float, "abs_tol": float, "tail_cutoff": float,
    "horizon": float, "jobs": int, "trials": int, "seed": int,
    "dt_factor": float, "draws": int, "json": bool,
}


def _coerce(key: str, raw: str, default):
    kind = bool if isinstance(default, bool) else _OPTION_TYPES.get(key, type(default))
    if kind is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    if kind in (int, float):
        return kind(raw)
    return raw


def _resolve_kernel(args) -> None:
    """Fill args.kernel from the config file when the flag is absent."""
    if args.kernel is not None:
        return
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    family = config.get("kernel")
    if family is None:
        raise UsageError("--kernel is required (flag or config file)")
    if family not in _FAMILIES:
        raise UsageError(f"unknown kernel family {family!r}; choose from {_FAMILIES}")
    args.kernel = family


def _merge(args: argparse.Namespace, defaults: dict) -> None:
    """Resolve each option: explicit flag > config file > built-in default."""
    if hasattr(args, "kernel"):  # verify has no kernel option
        defaults = {**defaults, "kernel": args.kernel}
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            setattr(args, key, _coerce(key, config[key], default))
        else:
            setattr(args, key, default)
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")


def _quad_spec(args) -> QuadratureSpec | None:
    overrides = {}
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        overrides["abs_tol"] = args.abs_tol
    if args.tail_cutoff is not None:
        overrides["tail_cutoff"] = args.tail_cutoff
        overrides["tail"] = "cutoff"
    if not overrides:
        return None
    return replace(QuadratureSpec(), **overrides)


def _json_default(obj):
    if isinstance(obj, np.generic):  # numpy scalars leak in from the kernels
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# -- stats --------------------------------------------------------------------

_STATS_DEFAULTS = {
    "u": 0.0, "mode": "up", "horizon": None, "json": False,
    "rel_tol": None, "abs_tol": None, "tail_cutoff": None, "out": None,
}


def cmd_stats(args) -> int:
    _resolve_kernel(args)
    defaults = dict(_STATS_DEFAULTS)
    for p in _FAMILY_PARAMS[args.kernel]:
        defaults[p] = _PARAM_DEFAULTS[p]
    _merge(args, defaults)
    params = {p: getattr(args, p) for p in _FAMILY_PARAMS[args.kernel]}
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
    if args.json:
        text = _dumps(report)
    else:
        width = max(len(k) for k in report)
        text = "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in report.items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if converged else EXIT_NUMERIC


# -- sweep --------------------------------------------------------------------

class SweepSpec:
    """A resolved sweep: kernel family, fixed params, 1-2 axes, quantities."""

    def __init__(self, family, fixed, axes, quantities, mode, spec, out, json_mirror):
        if not 1 <= len(axes) <= 2:
            raise UsageError("sweep needs 1 or 2 --axis options")
        for name, lo, hi, points, scale in axes:
            if points < 2:
                raise UsageError(f"axis {name!r}: need at least 2 points")
            if scale == "log" and (lo <= 0 or hi <= 0):
                raise UsageError(f"axis {name!r}: log scale needs positive bounds")
        valid = set(_FAMILY_PARAMS[family]) | {"u"}
        for name, *_ in axes:
            if name not in valid:
                raise UsageError(f"axis {name!r} not a parameter of kernel {family!r}")
        bad = [q for q in quantities if q not in ("mean_rate", "var_rate", "fano")]
        if bad:
            raise UsageError(f"unknown quantities {bad}; choose from mean_rate, var_rate, fano")
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
    scale = parts[4] if len(parts) == 5 else "lin"
    if scale not in ("lin", "log"):
        raise UsageError(f"bad --axis {text!r}: scale must be lin or log")
    return (name, lo, hi, points, scale)


def _sweep_point(task):
    """Evaluate one grid point; returns a result dict (NaN + flag on failure)."""
    family, params, u, mode, quantities, spec = task
    row = {}
    try:
        kernel = _make_kernel(family, params)
        if "mean_rate" in quantities:
            row["mean_rate"] = cr.mean_rate(kernel, u, mode)
        if "var_rate" in quantities or "fano" in quantities:
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
    except (cr.ValidityError, cr.NegativeVarianceError, cr.DegenerateLagError,
            IntegrationError, kn.KernelError, ArithmeticError) as exc:
        for q in quantities:
            row[q] = math.nan
        row["quad_error"] = math.nan
        row["converged"] = False
        row["error"] = str(exc)
    return row


_SWEEP_DEFAULTS = {
    "u": 0.0, "mode": "up", "quantity": "mean_rate,var_rate,fano",
    "rel_tol": None, "abs_tol": None, "tail_cutoff": None,
    "out": "sweep.csv", "json": False, "jobs": 1, "axis": None,
}


def cmd_sweep(args) -> int:
    _resolve_kernel(args)
    defaults = dict(_SWEEP_DEFAULTS)
    for p in _FAMILY_PARAMS[args.kernel]:
        defaults[p] = _PARAM_DEFAULTS[p]
    _merge(args, defaults)
    raw_axes = args.axis or []
    if isinstance(raw_axes, str):  # from the config file: semicolon-separated
        raw_axes = [a for a in raw_axes.split(";") if a.strip()]
    axes = [_parse_axis(a) for a in raw_axes]
    quantities = [q.strip() for q in args.quantity.split(",") if q.strip()]
    fixed = {p: getattr(args, p) for p in _FAMILY_PARAMS[args.kernel]}
    spec = SweepSpec(
        args.kernel, fixed, axes, quantities, args.mode, _quad_spec(args),
        args.out, args.json,
    )
    points = spec.grid()
    tasks = []
    for pt in points:
        params = dict(spec.fixed)
        u = args.u
        for name, val in pt.items():
            if name == "u":
                u = val
            else:
                params[name] = val
        tasks.append((spec.family, params, u, spec.mode, tuple(quantities), spec.spec))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]

    axis_names = [a[0] for a in spec.axes]
    columns = axis_names + [q for q in quantities] + ["quad_error", "converged"]
    rows = [
        {**{n: pt[n] for n in axis_names}, **{c: res.get(c) for c in columns if c not in pt}}
        for pt, res in zip(points, results)
    ]
    any_failed = not all(row["converged"] for row in rows)

    csv_lines = []
    for col in columns:
        csv_lines.append(f"# {col} [{_UNITS.get(col, 'unknown')}]")
    csv_lines.append(",".join(columns))
    for row in rows:
        csv_lines.append(",".join(_fmt(row[c]) for c in columns))
    text = "\n".join(csv_lines) + "\n"
    if spec.out.endswith(".json"):
        with open(spec.out, "w") as fh:
            fh.write(_dumps(rows))
    else:
        with open(spec.out, "w") as fh:
            fh.write(text)
        if spec.json_mirror:
            mirror = spec.out.rsplit(".", 1)[0] + ".json"
            with open(mirror, "w") as fh:
                fh.write(_dumps(rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {spec.out}\n")
    return EXIT_NUMERIC if any_failed else EXIT_OK


# -- simulate -----------------------------------------------------------------

_SIM_DEFAULTS = {
    "u": 0.0, "mode": "up", "horizon": 100.0, "trials": 1000, "seed": 0,
    "dt_factor": 0.01, "json": False,
    "rel_tol": None, "abs_tol": None, "tail_cutoff": None, "out": None,
}


def cmd_simulate(args) -> int:
    _resolve_kernel(args)
    defaults = dict(_SIM_DEFAULTS)
    for p in _FAMILY_PARAMS[args.kernel]:
        defaults[p] = _PARAM_DEFAULTS[p]
    _merge(args, defaults)
    params = {p: getattr(args, p) for p in _FAMILY_PARAMS[args.kernel]}
    kernel = _make_kernel(args.kernel, params)
    dt = args.dt_factor * kernel.tau_slow
    if args.kernel == "sdho":
        config = mc.SimConfig(system="sdho", params=params, T=args.horizon, dt=dt,
                              trials=args.trials, seed=args.seed, u=args.u, mode=args.mode)
    elif args.kernel == "ou":
        config = mc.SimConfig(system="ou", params=params, T=args.horizon, dt=dt,
                              trials=args.trials, seed=args.seed, u=args.u, mode=args.mode)
    else:
        config = mc.SimConfig(system="kernel", kernel=kernel, T=args.horizon, dt=dt,
                              trials=args.trials, seed=args.seed, u=args.u, mode=args.mode)
    est = mc.estimate_stats(config)
    spec = _quad_spec(args)
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
    if args.json:
        text = _dumps(report)
    else:
        width = max(len(k) for k in report)
        text = "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in report.items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # Fano compares a finite-horizon estimate to the asymptotic value, so it
    # carries a bias at moderate horizons; mean and variance are exact matches.
    if abs(z_mean) > 4.0 or abs(z_var) > 4.0:
        return EXIT_STATISTICAL
    return EXIT_OK


# -- verify -------------------------------------------------------------------

_VERIFY_DEFAULTS = {"seed": 0, "draws": 50, "json": False, "out": None,
                    "rel_tol": None, "abs_tol": None, "tail_cutoff": None}


def _verify_canonical(seed: int, draws: int) -> tuple[bool, str]:
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
    _merge(args, dict(_VERIFY_DEFAULTS))
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
    sub.add_argument("--kernel", choices=_FAMILIES)
    for p in sorted(_PARAM_DEFAULTS):
        sub.add_argument(f"--{p.replace('_', '-')}", dest=p, type=float)
    sub.add_argument("--u", type=float)
    sub.add_argument("--mode", choices=("up", "down", "total"))
    sub.add_argument("--rel-tol", dest="rel_tol", type=float)
    sub.add_argument("--abs-tol", dest="abs_tol", type=float)
    sub.add_argument("--tail-cutoff", dest="tail_cutoff", type=float)
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
    sweep.add_argument("--jobs", type=int)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (kn.KernelError, mc.SimulationConfigError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (cr.ValidityError, cr.NegativeVarianceError, cr.DegenerateLagError,
            IntegrationError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
