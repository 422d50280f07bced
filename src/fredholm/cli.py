"""Command line front end: solve / compare / sweep / verify.

Configs are JSON files; see the repository README for the schema.  Each
method is one route of ``_ROUTES``: a requirement on kernel and horizon and
a solve returning a ``RunResult``.  ``auto`` takes the first route that
applies, in the order exp_closed_form, capped_linear, trig, discrete.
Every command prints a JSON document on stdout and (for solve) optionally
writes a CSV of the sampled curve plus a JSON summary next to it.  Output
is deterministic: identical configs give byte-identical bytes.

Exit codes: 0 on success with all solver invariants satisfied, 1 when a
solve fails or an invariant check misses its tolerance, 2 for invalid
configuration.  Structural findings (negative values, nonconvexity) are
reported in the summary, not turned into failures -- reproducing a
counterexample is a successful run.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diagnostics, discrete, exponential, special
from ._quad import panel_gauss
from .errors import IllConditionedError, IndefiniteKernelError
from .kernels import CappedLinear, ExponentialSum, Trigonometric, kernel_from_spec

__all__ = ["RunConfig", "main", "run", "compare_cmd"]


class ConfigError(ValueError):
    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description (see README); ``method`` is resolved, never "auto"."""

    kernel: object
    gamma: float
    horizon: float
    method: str
    cells: int
    max_order: int
    tol: float | None
    out_path: str | None
    out_format: str


@dataclass(frozen=True, eq=False)
class RunResult:
    """A route's answer: ``t``, ``phi`` sample it, ``evaluate`` gives phi anywhere on
    [0, T], and ``residual_cap`` is the largest accepted residual as a multiple of sigma."""

    t: np.ndarray
    phi: np.ndarray
    sigma: float
    energy: float
    residual_max: float
    mass_defect: float
    grid_start: float
    grid_spacing: float
    default_tol: float | None
    residual_cap: float
    evaluate: object


def _kernel_is(cls, reason):
    return lambda kernel, horizon: None if isinstance(kernel, cls) else reason


_requires_exp = _kernel_is(
    ExponentialSum, "method exp_closed_form requires an exponential_sum kernel")
_requires_trig = _kernel_is(Trigonometric, "method trig requires a trigonometric kernel")


def _requires_capped(kernel, horizon):
    if not isinstance(kernel, CappedLinear) or kernel.cap != 1.0:
        return "method capped_linear requires capped_linear kernel with cap = 1"
    if not float(horizon).is_integer():  # horizon > 0 was checked, so n >= 1
        return "method capped_linear requires an integer horizon"


def _closed_form(cfg: RunConfig, evaluate, sigma, energy, residual, **mass_quad) -> RunResult:
    """Result of a closed form: the curve sampled on the inclusive grid of cells + 1 points."""
    t = np.linspace(0.0, cfg.horizon, cfg.cells + 1)
    mass = panel_gauss(evaluate, 0.0, cfg.horizon, **mass_quad)
    return RunResult(
        t=t,
        phi=evaluate(t),
        sigma=sigma,
        energy=energy,
        residual_max=residual,
        mass_defect=abs(mass - 1.0),
        grid_start=0.0,
        grid_spacing=t[1] - t[0],
        default_tol=None,
        residual_cap=1e-7,
        evaluate=evaluate,
    )


def _solve_exp(cfg: RunConfig) -> RunResult:
    cf = exponential.build_closed_form(cfg.kernel, cfg.gamma, cfg.horizon)
    fastest = math.sqrt(max(max(cf.c), max(cfg.kernel.b)))
    return _closed_form(
        cfg, lambda s: exponential.eval_closed_form(cf, s), cf.sigma,
        exponential.quadrature_energy(cfg.kernel, cf),
        exponential.fredholm_residual_max(cfg.kernel, cf),
        max_panel=min(cfg.horizon / 16.0, 4.0 / fastest),
    )


def _solve_capped(cfg: RunConfig) -> RunResult:
    sol = special.capped_linear_solve(int(cfg.horizon), cfg.gamma)
    return _closed_form(
        cfg, lambda s: special.eval_capped_linear(sol, s), sol.sigma,
        special.capped_linear_energy(sol), special.capped_linear_residual_max(sol),
        breakpoints=list(range(1, sol.n)), max_panel=1.0 / special.panels_per_unit(sol, 0.5),
    )


def _solve_trig(cfg: RunConfig) -> RunResult:
    sol = special.trig_solve(cfg.kernel.rho, cfg.gamma, cfg.horizon)
    return _closed_form(
        cfg, lambda s: special.eval_trig(sol, s), sol.sigma,
        special.trig_energy(sol), special.trig_residual_max(sol),
        max_panel=min(cfg.horizon / 8.0, 1.0 / sol.rho),
    )


def _solve_discrete(cfg: RunConfig) -> RunResult:
    grid = discrete.solve(discrete.Problem(cfg.gamma, cfg.horizon, cfg.kernel), cfg.cells)
    h = grid.spacing
    return RunResult(
        t=grid.midpoints(),
        phi=grid.values,
        sigma=grid.sigma,
        energy=grid.energy,
        residual_max=grid.residual_max,
        mass_defect=abs(math.fsum(grid.values * h) - 1.0),
        grid_start=h / 2.0,
        grid_spacing=h,
        default_tol=10.0 * grid.residual_max / cfg.gamma,
        residual_cap=1e-2,
        # piecewise-constant cell values: look up the cell containing t
        evaluate=lambda t: grid.values[np.minimum((t / h).astype(int), grid.cells - 1)],
    )


class _Route(NamedTuple):
    """``requirement(kernel, horizon)`` is None when the method applies, else why it does not."""

    requirement: object
    solve: object


_ROUTES = {  # "auto" takes the first route whose requirement holds
    "exp_closed_form": _Route(_requires_exp, _solve_exp),
    "capped_linear": _Route(_requires_capped, _solve_capped),
    "trig": _Route(_requires_trig, _solve_trig),
    "discrete": _Route(lambda kernel, horizon: None, _solve_discrete),
}
_METHODS = (*_ROUTES, "auto")


def _require_positive(obj, key):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v < math.inf:
        raise ConfigError(f"'{key}' must be a positive finite number", {"got": v})
    return float(v)


def parse_config(path, cells=None, max_order=None, out=None, fmt=None) -> RunConfig:
    """Load and validate a config file, applying CLI flag overrides."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", {"path": str(path)})
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", {"path": str(path)})
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", {"path": str(path)})

    known = {"kernel", "gamma", "horizon", "method", "cells", "diagnostics", "output"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown config fields", {"fields": unknown})

    if "kernel" not in raw:
        raise ConfigError("'kernel' is required")
    try:
        kernel = kernel_from_spec(raw["kernel"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad kernel spec: {exc}", {"kernel": raw.get("kernel")})

    gamma = _require_positive(raw, "gamma")
    horizon = _require_positive(raw, "horizon")

    method = raw.get("method", "auto")
    if method not in _METHODS:
        raise ConfigError(f"'method' must be one of {', '.join(_METHODS)}", {"got": method})

    if cells is None:
        cells = raw.get("cells", 1024)
    if not isinstance(cells, (int,)) or isinstance(cells, bool) or cells < 2:
        raise ConfigError("'cells' must be an integer >= 2", {"got": cells})

    diag = raw.get("diagnostics", {})
    if not isinstance(diag, dict):
        raise ConfigError("'diagnostics' must be an object", {"got": diag})
    if max_order is None:
        max_order = diag.get("max_order", 6)
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 2:
        raise ConfigError("'diagnostics.max_order' must be an integer >= 2", {"got": max_order})
    tol = diag.get("tol")
    if tol is not None:
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol < math.inf:
            raise ConfigError("'diagnostics.tol' must be positive and finite, or null", {"got": tol})
        tol = float(tol)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object", {"got": output})
    out_path = out if out is not None else output.get("path")
    out_format = fmt if fmt is not None else output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("'output.format' must be 'csv' or 'json'", {"got": out_format})

    if method == "auto":
        method = next(name for name, route in _ROUTES.items()
                      if route.requirement(kernel, horizon) is None)
    elif (reason := _ROUTES[method].requirement(kernel, horizon)) is not None:
        raise ConfigError(reason)

    return RunConfig(
        kernel=kernel,
        gamma=gamma,
        horizon=horizon,
        method=method,
        cells=cells,
        max_order=max_order,
        tol=tol,
        out_path=out_path,
        out_format=out_format,
    )


def _invariant_checks(res: RunResult) -> dict:
    return {
        "sigma_positive": bool(res.sigma > 0.0),
        "sigma_equals_two_energy": bool(abs(res.sigma - 2.0 * res.energy) <= 1e-9 * abs(res.sigma)),
        "unit_mass": bool(res.mass_defect <= 1e-12),
        "residual_small": bool(res.residual_max <= res.residual_cap * res.sigma),
    }


def _summary(cfg: RunConfig, res: RunResult, report) -> dict:
    checks = _invariant_checks(res)
    return {
        "kernel": cfg.kernel.spec(),
        "gamma": cfg.gamma,
        "horizon": cfg.horizon,
        "method": cfg.method,
        "cells": cfg.cells,
        "sigma": res.sigma,
        "energy": res.energy,
        "residual_max": res.residual_max,
        "mass_defect": res.mass_defect,
        "kernel_structure": cfg.kernel.classify().to_dict(),
        "monotonicity": report.to_dict(),
        "checks": checks,
        "passed": all(checks.values()),
    }


def _float_repr(x):
    return repr(float(x))


def _write_csv(path, cfg: RunConfig, res: RunResult):
    lines = [
        "# kernel: " + json.dumps(cfg.kernel.spec(), separators=(", ", ": ")),
        "# gamma: " + _float_repr(cfg.gamma),
        "# horizon: " + _float_repr(cfg.horizon),
        "# method: " + cfg.method,
        "# sigma: " + _float_repr(res.sigma),
        "# energy: " + _float_repr(res.energy),
        "# residual_max: " + _float_repr(res.residual_max),
        "t,phi",
    ]
    lines.extend("%.17g,%.17g" % (tv, pv) for tv, pv in zip(res.t, res.phi))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(doc, stream=None):
    (stream or sys.stdout).write(json.dumps(doc, indent=2) + "\n")


def _error(message, detail=None, code=1):
    _emit({"error": str(message), "detail": detail or {}}, sys.stderr)
    return code


def run(cfg: RunConfig) -> int:
    """Solve one config: print the summary JSON, write artifacts, return exit code."""
    res = _ROUTES[cfg.method].solve(cfg)  # a failed solve is reported first, even on a coarse grid
    try:
        diagnostics.require_samples(res.phi.size, cfg.max_order)
    except ValueError as exc:
        raise ConfigError(exc, {"cells": cfg.cells, "max_order": cfg.max_order})
    report = diagnostics.analyze(
        res.phi,
        cfg.horizon,
        max_order=cfg.max_order,
        tol=cfg.tol if cfg.tol is not None else res.default_tol,
        start=res.grid_start,
        spacing=res.grid_spacing,
    )
    summary = _summary(cfg, res, report)
    if cfg.out_path:
        base = cfg.out_path
        for suffix in (".csv", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        doc = dict(summary)
        if cfg.out_format == "csv":
            _write_csv(base + ".csv", cfg, res)
        else:
            doc["t"] = [float(v) for v in res.t]
            doc["phi"] = [float(v) for v in res.phi]
        with open(base + ".json", "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    _emit(summary)
    if not summary["passed"]:
        failed = [name for name, ok in summary["checks"].items() if not ok]
        return _error("invariant checks failed", {"failed": failed})
    return 0


def compare_cmd(cfg_a: RunConfig, cfg_b: RunConfig, grid_points=1001) -> dict:
    """Solve both configs and compare on a shared grid of grid_points samples."""
    if cfg_a.horizon != cfg_b.horizon:
        raise ConfigError("configs have different horizons",
                          {"a": cfg_a.horizon, "b": cfg_b.horizon})
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2", {"got": grid_points})
    t = np.linspace(0.0, cfg_a.horizon, grid_points)
    out = diagnostics.compare(*(
        diagnostics.SampledSolution(t=t, phi=res.evaluate(t), sigma=res.sigma)
        for res in (_ROUTES[cfg.method].solve(cfg) for cfg in (cfg_a, cfg_b))
    ))
    out["grid_points"] = int(grid_points)
    out["method_a"] = cfg_a.method
    out["method_b"] = cfg_b.method
    return out


def _cmd_solve(args):
    cfg = parse_config(args.config, cells=args.cells, max_order=args.max_order,
                       out=args.out, fmt=args.format)
    return run(cfg)


def _cmd_compare(args):
    cfg_a = parse_config(args.config_a, cells=args.cells)
    cfg_b = parse_config(args.config_b, cells=args.cells)
    out = compare_cmd(cfg_a, cfg_b, grid_points=args.grid_points)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(out, indent=2) + "\n")
    _emit(out)
    return 0


def _cmd_sweep(args):
    cfg = parse_config(args.config, cells=args.cells)
    try:
        gammas = discrete.sweep_gammas(float(g) for g in args.gammas.split(",") if g.strip())
    except ValueError as exc:
        raise ConfigError(f"--gammas: {exc}", {"got": args.gammas})
    problem = discrete.Problem(cfg.gamma, cfg.horizon, cfg.kernel)
    grids = discrete.gamma_sweep(problem, cfg.cells, gammas)
    entries = []
    for g, grid in zip(gammas, grids):
        entries.append({
            "gamma": g,
            "sigma": grid.sigma,
            "energy": grid.energy,
            "residual_max": grid.residual_max,
            "endpoint_mass": discrete.endpoint_mass(grid),
        })
    doc = {
        "kernel": cfg.kernel.spec(),
        "horizon": cfg.horizon,
        "cells": cfg.cells,
        "entries": entries,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    _emit(doc)
    return 0


def _cmd_verify(args):
    cfg = parse_config(args.config)
    if _requires_exp(cfg.kernel, cfg.horizon) is not None:
        raise ConfigError("verify requires an exponential_sum kernel")
    report = exponential.verify_step_identities(cfg.kernel, cfg.gamma, cfg.horizon)
    _emit(report)
    if not report["all_passed"]:
        failed = [name for name, v in report.items() if name != "all_passed" and not v["passed"]]
        return _error("certificates failed", {"failed": failed})
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fredholm",
        description="Minimize quadratic energies with displacement kernels on [0, T].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one config and emit curve + summary")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="base path for .csv/.json artifacts")
    p_solve.add_argument("--format", choices=("csv", "json"), default=None)
    p_solve.add_argument("--cells", type=int, default=None,
                         help="grid cells (discrete) or sample count (closed forms)")
    p_solve.add_argument("--max-order", type=int, default=None, dest="max_order",
                         help="highest finite-difference order in diagnostics")
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="solve two configs, compare on a shared grid")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--grid-points", type=int, default=1001, dest="grid_points")
    p_cmp.add_argument("--cells", type=int, default=None)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="re-solve for decreasing gamma values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--gammas", required=True,
                         help="comma-separated strictly decreasing positive finite values")
    p_sweep.add_argument("--cells", type=int, default=None)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="certify the closed-form linear algebra")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _error(exc, exc.detail, code=2)
    except IndefiniteKernelError as exc:
        return _error(exc, {"pivot": exc.pivot})
    except IllConditionedError as exc:
        return _error(exc, {"condition": exc.condition})
    except (ValueError, RuntimeError) as exc:
        return _error(exc)
    except OSError as exc:
        return _error(f"i/o failure: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
