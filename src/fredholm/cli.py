"""Command line front end: solve / compare / sweep / verify.

Configs are JSON files; see the repository README for the schema.  Each
method is one route of ``_ROUTES``: a requirement on kernel and horizon and
a solve returning a ``RunResult``.  ``auto`` takes the first route that
applies, in the order exp_closed_form, capped_linear, trig, discrete.
Each route and command imports its own solver module when it runs, so a
command loads only the route it takes.  Every command prints a JSON
document on stdout and (for solve) optionally writes a CSV of the sampled
curve plus a JSON summary next to it.  Output is deterministic: identical
configs give byte-identical bytes.

Every JSON document is strict RFC 8259: a non-finite number is written as
the string "inf", "-inf" or "nan", never as Infinity or NaN.

Exit codes: 0 on success with all solver invariants satisfied, 1 when a
solve fails or an invariant check misses its tolerance, 2 for invalid
configuration.  Structural findings (negative values, nonconvexity) are
reported in the summary, not turned into failures -- reproducing a
counterexample is a successful run.
"""

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._quad import panel_gauss  # noqa: F401  the benchmark's span recorder wraps this name
from .kernels import (CappedLinear, ExponentialSum, Trigonometric, _fields, _positive_finite,
                      _positive_int, kernel_from_spec)

__all__ = ["RunConfig", "MAX_CELLS", "main", "run", "compare_cmd"]

# peak memory of a discrete solve grows by about 300 bytes a cell with a CSV
# artifact and 380 with a JSON one, above the 31 MB of the imports (measured
# at 2^20 cells on a 200-knot tabulated kernel and on a two-term exponential
# sum, alike), so 2^22 cells need about 1.3 and 1.6 GB
MAX_CELLS = 1 << 22


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
    if not horizon.is_integer():  # a float, checked > 0, so n >= 1
        return "method capped_linear requires an integer horizon"


def _even(left, n):
    """The n samples of a curve even about the middle of its grid, from its first (n + 1) // 2.

    Every closed form builds ``RunResult.phi`` here, so it equals its reversal bit for
    bit, as ``discrete.solve``'s values already do."""
    return np.concatenate((left, left[: n // 2][::-1]))


def _closed_form(cfg: RunConfig, evaluate, sigma, check) -> RunResult:
    """Result of a closed form: the curve sampled on the inclusive grid of cells + 1 points,
    with the mass, energy and residual of its route's one check pass.

    The grid's right half is T minus its left half, reversed, so each sample
    of the mirrored curve sits on the mirror of the abscissa it was evaluated at."""
    n = cfg.cells + 1
    left = np.linspace(0.0, cfg.horizon, n)[: (n + 1) // 2]
    t = np.concatenate((left, cfg.horizon - left[: n // 2][::-1]))
    return RunResult(
        t=t,
        phi=_even(evaluate(left), n),
        sigma=sigma,
        energy=check.energy,
        residual_max=check.residual_max,
        mass_defect=abs(check.mass - 1.0),
        grid_start=0.0,
        grid_spacing=t[1] - t[0],
        default_tol=None,
        residual_cap=1e-7,
        evaluate=evaluate,
    )


def _solve_exp(cfg: RunConfig) -> RunResult:
    from . import exponential
    cf = exponential.build_closed_form(cfg.kernel, cfg.gamma, cfg.horizon)
    return _closed_form(cfg, lambda s: exponential.eval_closed_form(cf, s), cf.sigma,
                        exponential.closed_form_check(cfg.kernel, cf))


def _solve_capped(cfg: RunConfig) -> RunResult:
    from . import special
    sol = special.capped_linear_solve(int(cfg.horizon), cfg.gamma)
    return _closed_form(cfg, lambda s: special.eval_capped_linear(sol, s), sol.sigma,
                        special.capped_linear_check(sol))


def _solve_trig(cfg: RunConfig) -> RunResult:
    from . import special
    sol = special.trig_solve(cfg.kernel.rho, cfg.gamma, cfg.horizon)
    return _closed_form(cfg, lambda s: special.eval_trig(sol, s), sol.sigma,
                        special.trig_check(sol))


def _solve_discrete(cfg: RunConfig) -> RunResult:
    from . import discrete
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


_OBJECTS = {  # the fields each object of a config may hold; README's schema shows exactly these
    "config": ("kernel", "gamma", "horizon", "method", "cells", "diagnostics", "output"),
    "diagnostics": ("max_order", "tol"),
    "output": ("path", "format"),
}


def _path(value, name):
    """``value``, the path of a file the CLI writes or None for no file; a path is a non-empty string."""
    if value is None or (isinstance(value, str) and value):
        return value
    raise ConfigError(f"{name} must be a non-empty string", {"got": value})


def _format(value, name):
    """``value``, the format of the solve artifact: "csv" or "json"."""
    if value in ("csv", "json"):
        return value
    raise ValueError(f"'{name}' must be 'csv' or 'json'")


def _setting(check, value, flag, name, **bounds):
    """``value`` of the config, or the ``flag`` that overrides it when given (not None): each
    passes ``_field(check, ..., name, **bounds)``, so a flag never hides a bad config value."""
    value = _field(check, value, name, **bounds)
    return value if flag is None else _field(check, flag, name, **bounds)


def _field(check, value, name, **bounds):
    """``check(value, name, **bounds)``, with its refusal as a config error whose detail is the
    refusal's own (the fields of a FieldError) or else the value."""
    try:
        return check(value, name, **bounds)
    except ValueError as exc:
        raise ConfigError(exc, getattr(exc, "detail", {"got": value})) from None


def parse_config(path, cells=None, max_order=None, out=None, fmt=None) -> RunConfig:
    """Load and validate a config file, applying CLI flag overrides."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", {"path": str(path)})
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", {"path": str(path)})
    _field(_fields, raw, "config", known=_OBJECTS["config"], required=("kernel", "gamma", "horizon"))
    try:
        kernel = kernel_from_spec(raw["kernel"])
    except ValueError as exc:
        raise ConfigError(f"bad kernel spec: {exc}", {"kernel": raw["kernel"]})

    gamma = _field(_positive_finite, raw["gamma"], "gamma")
    horizon = _field(_positive_finite, raw["horizon"], "horizon")

    method = raw.get("method", "auto")
    if method not in _METHODS:
        raise ConfigError(f"'method' must be one of {', '.join(_METHODS)}", {"got": method})

    cells = _setting(_positive_int, raw.get("cells", 1024), cells, "cells", least=2, most=MAX_CELLS)

    diag = _field(_fields, raw.get("diagnostics", {}), "diagnostics", known=_OBJECTS["diagnostics"])
    max_order = _setting(_positive_int, diag.get("max_order", 6), max_order, "diagnostics.max_order",
                         least=2)
    tol = diag.get("tol")
    if tol is not None:
        tol = _field(_positive_finite, tol, "diagnostics.tol")

    output = _field(_fields, raw.get("output", {}), "output", known=_OBJECTS["output"])
    out_path = _path(output.get("path"), "output.path")
    out_path = out_path if out is None else _path(out, "--out")
    out_format = _setting(_format, output.get("format", "csv"), fmt, "output.format")

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


def _write_text(path, text):
    """Write ``text`` to ``path`` in place, then cut the file to the written length.

    Like ``open(path, "w")`` it creates a missing file, keeps an existing
    file's inode and mode, and follows a symlink.  It does not truncate to
    zero first: on ext4 a file truncated to zero and rewritten starts
    writeback of its new pages when it is closed, which costs more than the
    write itself."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe or a device has no length
            fh.truncate()


def _write_csv(path, cfg: RunConfig, res: RunResult):
    header = [
        "# kernel: " + json.dumps(cfg.kernel.spec(), separators=(", ", ": "), allow_nan=False),
        "# gamma: " + _float_repr(cfg.gamma),
        "# horizon: " + _float_repr(cfg.horizon),
        "# method: " + cfg.method,
        "# sigma: " + _float_repr(res.sigma),
        "# energy: " + _float_repr(res.energy),
        "# residual_max: " + _float_repr(res.residual_max),
        "t,phi",
    ]
    n = res.t.size
    k = (n + 1) // 2
    # phi equals its reversal bit for bit: format its left half once and mirror the strings
    left = ("%.17g\n" * k % tuple(res.phi[:k].tolist())).split("\n")
    flat = [None] * (2 * n)  # t0, phi0, t1, phi1, ...
    flat[0::2] = res.t.tolist()
    flat[1::2] = left[:k] + left[: n // 2][::-1]
    body = ("%.17g,%s\n" * n) % tuple(flat)
    _write_text(path, "\n".join(header) + "\n" + body)


_quote = json.encoder.encode_basestring_ascii  # json.dumps's own string escaper


def _json(o, nl):
    """The indent-2 JSON text of ``o``, which starts after the line break and indent ``nl``.

    It is the text of ``json.dumps(o, indent=2)``, but strict: a non-finite
    float is written as the string of its float repr, "inf", "-inf" or "nan",
    also for a numpy scalar."""
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else _quote(float.__repr__(o))
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = nl + "  "
    if isinstance(o, dict):  # _quote refuses a key that is not a string
        items = [_quote(k) + ": " + _json(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(o, (list, tuple)):
        items = [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(doc):
    return _json(doc, "\n") + "\n"


def _emit(doc, stream=None, out=None):
    """Write ``doc`` to ``stream`` (stdout by default), after writing the same text to ``out``."""
    text = _dumps(doc)
    if out:
        _write_text(out, text)
    (stream or sys.stdout).write(text)


def _error(message, detail=None, code=1):
    _emit({"error": str(message), "detail": detail or {}}, sys.stderr)
    return code


def run(cfg: RunConfig) -> int:
    """Solve one config: print the summary JSON, write artifacts, return exit code."""
    from . import diagnostics
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
    summary_out = None  # the summary's .json artifact, when it is stdout's text
    if cfg.out_path:
        base = cfg.out_path
        for suffix in (".csv", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        if cfg.out_format == "csv":
            _write_csv(base + ".csv", cfg, res)
            summary_out = base + ".json"
        else:
            _write_text(base + ".json", _dumps({**summary, "t": res.t.tolist(), "phi": res.phi.tolist()}))
    _emit(summary, out=summary_out)
    if not summary["passed"]:
        failed = [name for name, ok in summary["checks"].items() if not ok]
        return _error("invariant checks failed", {"failed": failed})
    return 0


def compare_cmd(cfg_a: RunConfig, cfg_b: RunConfig, grid_points=1001) -> dict:
    """Solve both configs and compare on a shared grid of grid_points samples."""
    from . import diagnostics
    if cfg_a.horizon != cfg_b.horizon:
        raise ConfigError("configs have different horizons",
                          {"a": cfg_a.horizon, "b": cfg_b.horizon})
    grid_points = _field(_positive_int, grid_points, "grid_points", least=2, most=MAX_CELLS)
    t = np.linspace(0.0, cfg_a.horizon, grid_points)
    out = diagnostics.compare(*(
        diagnostics.SampledSolution(t=t, phi=res.evaluate(t), sigma=res.sigma)
        for res in (_ROUTES[cfg.method].solve(cfg) for cfg in (cfg_a, cfg_b))
    ))
    out["grid_points"] = grid_points
    out["method_a"] = cfg_a.method
    out["method_b"] = cfg_b.method
    return out


def _cmd_solve(args):
    cfg = parse_config(args.config, cells=args.cells, max_order=args.max_order,
                       out=args.out, fmt=args.format)
    return run(cfg)


def _cmd_compare(args):
    out = _path(args.out, "--out")
    cfg_a = parse_config(args.config_a, cells=args.cells)
    cfg_b = parse_config(args.config_b, cells=args.cells)
    _emit(compare_cmd(cfg_a, cfg_b, grid_points=args.grid_points), out=out)
    return 0


def _cmd_sweep(args):
    from . import discrete
    out = _path(args.out, "--out")
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
    _emit(doc, out=out)
    return 0


def _cmd_verify(args):
    from . import exponential
    cfg = parse_config(args.config)
    if _requires_exp(cfg.kernel, cfg.horizon) is not None:
        raise ConfigError("verify requires an exponential_sum kernel")
    report = exponential.verify_step_identities(cfg.kernel, cfg.gamma, cfg.horizon)
    _emit(report)
    if not report["all_passed"]:
        failed = [name for name, v in report.items() if name != "all_passed" and not v["passed"]]
        return _error("certificates failed", {"failed": failed})
    return 0


@functools.cache  # argparse parsers are not changed by parsing, so one serves every main call
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

    p_sweep = sub.add_parser("sweep", help="re-solve for several gamma values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--gammas", required=True,
                         help="comma-separated positive finite values, in any order")
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
    except (ValueError, RuntimeError) as exc:  # the errors module's exceptions carry a detail
        return _error(exc, getattr(exc, "detail", None))
    except OSError as exc:
        return _error(f"i/o failure: {exc}")
    except OverflowError as exc:  # e.g. a horizon near the float limit
        return _error(f"numeric overflow: {exc}")
    except MemoryError as exc:  # the unwound stack has freed what the solve held
        return _error(f"out of memory: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
