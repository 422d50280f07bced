"""Command line front end: solve / compare / sweep / verify.

Configs are JSON files; see the repository README for the schema.  Every
command prints a machine-readable JSON document on stdout and (for solve)
optionally writes a CSV of the sampled curve plus a JSON summary next to
it.  Output is deterministic: identical configs give byte-identical bytes.

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

import numpy as np

from . import diagnostics, discrete, exponential, special
from ._quad import panel_gauss
from .errors import IllConditionedError, IndefiniteKernelError
from .kernels import CappedLinear, ExponentialSum, Trigonometric, kernel_from_spec

__all__ = ["RunConfig", "main", "run", "compare_cmd"]

_METHODS = ("discrete", "exp_closed_form", "capped_linear", "trig", "auto")


class ConfigError(ValueError):
    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description (see README for the JSON schema)."""

    kernel: object
    gamma: float
    horizon: float
    method: str
    cells: int
    max_order: int
    tol: float | None
    out_path: str | None
    out_format: str

    @property
    def resolved_method(self):
        if self.method != "auto":
            return self.method
        k = self.kernel
        if isinstance(k, ExponentialSum):
            return "exp_closed_form"
        if isinstance(k, CappedLinear) and k.cap == 1.0 and _is_integer(self.horizon):
            return "capped_linear"
        if isinstance(k, Trigonometric):
            return "trig"
        return "discrete"


def _is_integer(x):
    return float(x) == int(x) and int(x) >= 1


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
        raise ConfigError(
            f"'method' must be one of {', '.join(_METHODS)}", {"got": method}
        )

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

    cfg = RunConfig(
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
    _check_method_compat(cfg)
    return cfg


def _check_method_compat(cfg: RunConfig):
    m = cfg.method
    if m == "exp_closed_form" and not isinstance(cfg.kernel, ExponentialSum):
        raise ConfigError("method exp_closed_form requires an exponential_sum kernel")
    if m == "capped_linear":
        if not isinstance(cfg.kernel, CappedLinear) or cfg.kernel.cap != 1.0:
            raise ConfigError("method capped_linear requires capped_linear kernel with cap = 1")
        if not _is_integer(cfg.horizon):
            raise ConfigError("method capped_linear requires an integer horizon")
    if m == "trig" and not isinstance(cfg.kernel, Trigonometric):
        raise ConfigError("method trig requires a trigonometric kernel")


@dataclass(frozen=True, eq=False)
class RunResult:
    method: str
    t: np.ndarray
    phi: np.ndarray
    sigma: float
    energy: float
    residual_max: float
    mass_defect: float
    grid_start: float
    grid_spacing: float
    default_tol: float | None
    evaluate: object = None


def _solve_config(cfg: RunConfig) -> RunResult:
    method = cfg.resolved_method
    T = cfg.horizon
    if method == "discrete":
        grid = discrete.solve(discrete.Problem(cfg.gamma, T, cfg.kernel), cfg.cells)
        h = grid.spacing
        return RunResult(
            method=method,
            t=grid.midpoints(),
            phi=grid.values,
            sigma=grid.sigma,
            energy=grid.energy,
            residual_max=grid.residual_max,
            mass_defect=abs(math.fsum(grid.values * h) - 1.0),
            grid_start=h / 2.0,
            grid_spacing=h,
            default_tol=10.0 * grid.residual_max / cfg.gamma,
        )

    t = np.linspace(0.0, T, cfg.cells + 1)
    if method == "exp_closed_form":
        cf = exponential.build_closed_form(cfg.kernel, cfg.gamma, T)
        evaluate = lambda s: exponential.eval_closed_form(cf, s)  # noqa: E731
        sigma = cf.sigma
        energy = exponential.quadrature_energy(cfg.kernel, cf)
        residual = exponential.fredholm_residual_max(cfg.kernel, cf)
        fastest = math.sqrt(max(max(cf.c), max(cfg.kernel.b)))
        mass = panel_gauss(evaluate, 0.0, T, max_panel=min(T / 16.0, 4.0 / fastest))
    elif method == "capped_linear":
        sol = special.capped_linear_solve(int(T), cfg.gamma)
        evaluate = lambda s: special.eval_capped_linear(sol, s)  # noqa: E731
        sigma = sol.sigma
        energy = special.capped_linear_energy(sol)
        residual = special.capped_linear_residual_max(sol)
        mass = panel_gauss(evaluate, 0.0, T, breakpoints=list(range(1, sol.n)),
                           max_panel=1.0 / special.panels_per_unit(sol, 0.5))
    else:  # trig
        sol = special.trig_solve(cfg.kernel.rho, cfg.gamma, T)
        evaluate = lambda s: special.eval_trig(sol, s)  # noqa: E731
        sigma = sol.sigma
        energy = special.trig_energy(sol)
        residual = special.trig_residual_max(sol)
        mass = panel_gauss(evaluate, 0.0, T, max_panel=min(T / 8.0, 1.0 / sol.rho))
    return RunResult(
        method=method,
        t=t,
        phi=evaluate(t),
        sigma=sigma,
        energy=energy,
        residual_max=residual,
        mass_defect=abs(mass - 1.0),
        grid_start=0.0,
        grid_spacing=t[1] - t[0],
        default_tol=None,
        evaluate=evaluate,
    )


def _invariant_checks(res: RunResult) -> dict:
    residual_cap = (1e-2 if res.method == "discrete" else 1e-7) * res.sigma
    return {
        "sigma_positive": bool(res.sigma > 0.0),
        "sigma_equals_two_energy": bool(
            abs(res.sigma - 2.0 * res.energy) <= 1e-9 * abs(res.sigma)
        ),
        "unit_mass": bool(res.mass_defect <= 1e-12),
        "residual_small": bool(res.residual_max <= residual_cap),
    }


def _summary(cfg: RunConfig, res: RunResult, report) -> dict:
    checks = _invariant_checks(res)
    return {
        "kernel": cfg.kernel.spec(),
        "gamma": cfg.gamma,
        "horizon": cfg.horizon,
        "method": res.method,
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
        "# method: " + res.method,
        "# sigma: " + _float_repr(res.sigma),
        "# energy: " + _float_repr(res.energy),
        "# residual_max: " + _float_repr(res.residual_max),
        "t,phi",
    ]
    lines.extend(
        "%.17g,%.17g" % (tv, pv) for tv, pv in zip(res.t, res.phi)
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(doc, stream=None):
    (stream or sys.stdout).write(json.dumps(doc, indent=2) + "\n")


def _error(message, detail=None, code=1):
    _emit({"error": str(message), "detail": detail or {}}, sys.stderr)
    return code


def run(cfg: RunConfig) -> int:
    """Solve one config: print the summary JSON, write artifacts, return exit code."""
    res = _solve_config(cfg)
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
        if cfg.out_format == "csv":
            _write_csv(base + ".csv", cfg, res)
            with open(base + ".json", "w") as fh:
                fh.write(json.dumps(summary, indent=2) + "\n")
        else:
            doc = dict(summary)
            doc["t"] = [float(v) for v in res.t]
            doc["phi"] = [float(v) for v in res.phi]
            with open(base + ".json", "w") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
    _emit(summary)
    if not summary["passed"]:
        failed = [name for name, ok in summary["checks"].items() if not ok]
        return _error("invariant checks failed", {"failed": failed})
    return 0


def _resample(res: RunResult, t):
    if res.method == "discrete":
        # piecewise-constant cell values: look up the cell containing t
        idx = np.minimum((t / res.grid_spacing).astype(int), res.phi.size - 1)
        return res.phi[idx]
    return res.evaluate(t)


def compare_cmd(cfg_a: RunConfig, cfg_b: RunConfig, grid_points=1001) -> dict:
    """Solve both configs and compare on a shared grid of grid_points samples."""
    if cfg_a.horizon != cfg_b.horizon:
        raise ConfigError(
            "configs have different horizons",
            {"a": cfg_a.horizon, "b": cfg_b.horizon},
        )
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2", {"got": grid_points})
    res_a = _solve_config(cfg_a)
    res_b = _solve_config(cfg_b)
    t = np.linspace(0.0, cfg_a.horizon, grid_points)
    sol_a = diagnostics.SampledSolution(t=t, phi=_resample(res_a, t), sigma=res_a.sigma)
    sol_b = diagnostics.SampledSolution(t=t, phi=_resample(res_b, t), sigma=res_b.sigma)
    out = diagnostics.compare(sol_a, sol_b)
    out["grid_points"] = int(grid_points)
    out["method_a"] = res_a.method
    out["method_b"] = res_b.method
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
        gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
    except ValueError:
        raise ConfigError("--gammas must be a comma-separated list of numbers",
                          {"got": args.gammas})
    if not gammas or any(not 0 < g < math.inf for g in gammas) or any(
        x <= y for x, y in zip(gammas[:-1], gammas[1:])
    ):
        raise ConfigError("--gammas must be strictly decreasing positive finite values",
                          {"got": args.gammas})
    problem = discrete.Problem(gammas[0], cfg.horizon, cfg.kernel)
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
    if not isinstance(cfg.kernel, ExponentialSum):
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
