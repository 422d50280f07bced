"""The benchmark's workloads: inputs made from a seed, operations timed as a
user calls them, and the independent checks applied to each result.

A workload object is built in two steps.  The constructor makes the inputs
(kernels, ``Problem``s, config files): this is what the benchmark's
``setup_s`` times, together with ``import fredholm``.  ``prepare()`` then
computes the reference values the checks compare against; it is not part
of the set-up time, because a user of the library never pays for it.

Every operation calls into ``fredholm`` through module attributes at call
time (``fh.discrete.solve``, not a name bound at import), so the span
recorder's wrappers see the calls.
"""

import contextlib
import io
import json
import math
import os
import random

import numpy as np

import checks

EXP1 = {"type": "exponential_sum", "a": [1.0], "b": [1.0]}
EXP2 = {"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]}
CAPPED = {"type": "capped_linear", "cap": 1.0}
TABULATED = {"type": "tabulated", "t": [0.0, 0.3, 1.0, 2.5], "g": [2.0, 1.1, 0.4, 0.05]}


def _seeded_order(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _rows(spec, horizon, m):
    h = horizon / m
    return checks.cell_row(spec, h, m), checks.galerkin_row(spec, h, m)


class DenseGrid:
    """discrete.solve at m = 4096 on three kernels."""

    CELLS = 4096
    COARSE = 64

    def __init__(self, fh, seed, workdir):
        self.fh = fh
        problems = [
            ("exp2", EXP2, 0.5, 2.0),
            ("capped3", CAPPED, 0.1, 3.0),
            ("powerlaw", {"type": "power_law", "alpha": 0.5}, 0.5, 2.0),
        ]
        self.cases = [
            (name, spec, fh.discrete.Problem(gamma, horizon, fh.kernels.kernel_from_spec(spec)))
            for name, spec, gamma, horizon in _seeded_order(problems, seed)
        ]

    def prepare(self):
        self.refs = {}
        for name, spec, p in self.cases:
            lower = None
            if name == "exp2":
                lower = checks.exp_reference(spec, p.gamma, p.horizon)[1]
            elif name == "capped3":
                lower = self.fh.special.capped_linear_solve(3, p.gamma).sigma
            upper = (self.COARSE, checks.galerkin_solve(spec, p.gamma, p.horizon, self.COARSE)[0])
            self.refs[name] = (_rows(spec, p.horizon, self.CELLS), lower, upper)

    def warmup(self):
        for _, _, p in self.cases:
            self.fh.discrete.solve(p, 64)

    def operations(self):
        fh = self.fh
        return [(name, lambda p=p: fh.discrete.solve(p, self.CELLS)) for name, _, p in self.cases]

    def check(self, name, grid):
        spec, p = next((s, p) for n, s, p in self.cases if n == name)
        rows, lower, upper = self.refs[name]
        return checks.check_discrete(grid.values, grid.sigma, grid.energy, grid.residual_max,
                                     spec, p.gamma, p.horizon, rows, lower, upper)


class TabulatedSweep:
    """discrete.gamma_sweep at m = 512 on the 4-knot tabulated kernel."""

    CELLS = 512
    COARSE = 64
    HORIZON = 3.0
    GAMMAS = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003)

    def __init__(self, fh, seed, workdir):
        self.fh = fh
        kernel = fh.kernels.kernel_from_spec(TABULATED)
        self.problem = fh.discrete.Problem(self.GAMMAS[0], self.HORIZON, kernel)

    def prepare(self):
        self.rows = _rows(TABULATED, self.HORIZON, self.CELLS)
        self.uppers = [checks.galerkin_solve(TABULATED, g, self.HORIZON, self.COARSE)[0]
                       for g in self.GAMMAS]

    def warmup(self):
        self.fh.discrete.gamma_sweep(self.problem, 32, self.GAMMAS)

    def operations(self):
        fh = self.fh
        return [("sweep", lambda: fh.discrete.gamma_sweep(self.problem, self.CELLS, self.GAMMAS))]

    def check(self, name, grids):
        if len(grids) != len(self.GAMMAS):
            return [f"sweep returned {len(grids)} solutions for {len(self.GAMMAS)} gammas"]
        fails = checks.check_strictly_decreasing([g.sigma for g in grids])
        for gamma, upper, grid in zip(self.GAMMAS, self.uppers, grids):
            fails += [f"gamma {gamma}: {f}" for f in checks.check_discrete(
                grid.values, grid.sigma, grid.energy, grid.residual_max, TABULATED, gamma,
                self.HORIZON, self.rows, upper=(self.COARSE, upper))]
        return fails


class ClosedFormCli:
    """One pass of cli.main over five csv solves and one verify."""

    # name: (kernel spec, gamma, horizon, cells)
    SOLVES = {
        "exp1": (EXP1, 1.0, 1.0, 1024),
        "exp2": (EXP2, 0.5, 2.0, 1024),
        "trig": ({"type": "trigonometric", "rho": 0.5}, 0.001, 1.0, 512),
        "capped3": (CAPPED, 0.1, 3.0, 1024),
        "hump": (CAPPED, 0.01, 11.0, 2048),
    }
    METHODS = {"exp1": "exp_closed_form", "exp2": "exp_closed_form", "trig": "trig",
               "capped3": "capped_linear", "hump": "capped_linear"}

    def __init__(self, fh, seed, workdir):
        self.fh = fh
        self.workdir = workdir
        self.argv = {}
        for name, (spec, gamma, horizon, cells) in self.SOLVES.items():
            cfg = os.path.join(workdir, f"{name}.json")
            with open(cfg, "w") as fh_cfg:
                json.dump({"kernel": spec, "gamma": gamma, "horizon": horizon, "cells": cells}, fh_cfg)
            self.argv[name] = ["solve", "--config", cfg, "--out", self._base(name)]
        self.argv["verify"] = ["verify", "--config", os.path.join(workdir, "exp2.json")]
        self.order = _seeded_order(self.argv, seed)

    def _base(self, name):
        return os.path.join(self.workdir, f"{name}_out")

    def prepare(self):
        self.refs = {}
        for name, (spec, gamma, horizon, _) in self.SOLVES.items():
            if name == "exp1":
                sigma = checks.one_term_phi(1.0, 1.0, gamma, horizon, 0.0)[1]
                self.refs[name] = (sigma, lambda t, g=gamma, T=horizon: checks.one_term_phi(1.0, 1.0, g, T, t)[2])
            elif name == "exp2":
                self.refs[name] = checks.exp_reference(spec, gamma, horizon)[1:]
            elif name == "trig":
                self.refs[name] = checks.trig_reference(spec["rho"], gamma, horizon)
            else:  # capped: own Galerkin at 128 cells per unit and half that
                m = 128 * int(horizon)
                fine = checks.galerkin_solve(spec, gamma, horizon, m)
                coarse = checks.galerkin_solve(spec, gamma, horizon, m // 2)[0]
                self.refs[name] = (fine, coarse)

    def warmup(self):
        self._pass()

    def _pass(self):
        out = {}
        for name in self.order:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.fh.cli.main(self.argv[name])
            out[name] = (code, buf.getvalue())
        return out

    def operations(self):
        return [("pass", self._pass)]

    def output_bytes(self, result):
        total = sum(len(text.encode()) for _, text in result.values())
        for name in self.SOLVES:
            total += sum(os.path.getsize(self._base(name) + ext) for ext in (".csv", ".json"))
        return total

    def check(self, name, result):
        fails = []
        for cmd, (code, text) in result.items():
            if code != 0:
                fails.append(f"{cmd}: exit code {code}")
                continue
            if cmd == "verify":
                fails += self._check_verify(json.loads(text))
            else:
                fails += [f"{cmd}: {f}" for f in self._check_solve(cmd, json.loads(text))]
        return fails

    @staticmethod
    def _check_verify(report):
        names = ("cauchy_inverse", "column_sums", "z_matrix", "nonnegativity", "similarity")
        fails = [] if report.get("all_passed") is True else ["verify: all_passed is not true"]
        for key in names:
            entry = report.get(key, {})
            err, tol = entry.get("error"), entry.get("tol")
            if not (isinstance(err, float) and isinstance(tol, float) and 0.0 <= err <= tol):
                fails.append(f"verify: {key} error {err!r} not within {tol!r}")
        return fails

    def _check_solve(self, name, summary):
        spec, gamma, horizon, cells = self.SOLVES[name]
        fails = []
        if summary.get("passed") is not True or summary.get("method") != self.METHODS[name]:
            fails.append(f"summary passed={summary.get('passed')!r} method={summary.get('method')!r}")
        with open(self._base(name) + ".json") as fh_json:
            if json.load(fh_json) != summary:
                fails.append("json artifact differs from stdout summary")
        header, t, phi = _read_csv(self._base(name) + ".csv")
        sigma = summary["sigma"]
        if float(header["sigma"]) != sigma:
            fails.append("csv sigma differs from summary sigma")
        grid = np.linspace(0.0, horizon, cells + 1)
        if t.shape != grid.shape or np.max(np.abs(t - grid)) > 1e-15 * horizon:
            fails.append("csv abscissae are not the inclusive uniform grid")
            return fails
        fine, coarse = _trapezoid(phi), _trapezoid(phi[::2])
        mass = (fine + (fine - coarse) / 3.0) * horizon  # Romberg step on the uniform grid
        if not abs(mass - 1.0) <= 1e-5:
            fails.append(f"extrapolated mass {mass!r} != 1")
        if name in ("exp1", "exp2", "trig"):
            ref_sigma, ref_phi = self.refs[name]
            fails += checks.check_value("sigma", sigma, ref_sigma, 1e-10)
            fails += checks.check_curve("phi", phi, ref_phi(t), 1e-9)
            if name == "trig":
                fails += checks.check_negative_minimum(phi)
        else:
            (fine_sigma, fine_phi), coarse_sigma = self.refs[name]
            diff = coarse_sigma - fine_sigma
            if not sigma <= fine_sigma:
                fails.append(f"sigma {sigma!r} above the Galerkin bound {fine_sigma!r}")
            if not abs(sigma - (fine_sigma - diff / 3.0)) <= 1e-2 * diff:
                fails.append(f"sigma {sigma!r} off the Richardson estimate {fine_sigma - diff / 3.0!r}")
            mids = (np.arange(fine_phi.size) + 0.5) * horizon / fine_phi.size
            fails += checks.check_curve("phi", np.interp(mids, t, phi), fine_phi, 5e-3)
            if name == "hump":
                fails += checks.check_hump(phi, horizon / cells)
        return fails


def _trapezoid(values):
    """Trapezoid rule for samples on a uniform inclusive grid of [0, 1]."""
    return (math.fsum(values) - 0.5 * (values[0] + values[-1])) / (len(values) - 1)


def _read_csv(path):
    header = {}
    rows = []
    with open(path) as fh_csv:
        for line in fh_csv:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            elif line[0].isdigit() or line[0] == "-":
                rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows)
    return header, arr[:, 0], arr[:, 1]


class SmallGridScan:
    """Random exponential sums: discrete solve at m = 256, closed form,
    compare at the midpoints, and analyze the closed form on 801 points."""

    CELLS = 256
    COARSE = 64
    POOL = 16
    SAMPLES = 801

    def __init__(self, fh, seed, workdir):
        self.fh = fh
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in range(self.POOL):
            n = i % 4 + 1  # every round holds each term count equally often
            b = [rng.uniform(0.4, 2.5)]
            for _ in range(n - 1):
                b.append(b[-1] * rng.uniform(1.6, 3.0))
            a = rng.uniform(0.2, 2.0, size=n)
            spec = {"type": "exponential_sum", "a": [float(v) for v in a], "b": [float(v) for v in b]}
            gamma, horizon = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 3.0))
            kernel = fh.kernels.kernel_from_spec(spec)
            self.cases.append((spec, fh.discrete.Problem(gamma, horizon, kernel)))

    def prepare(self):
        self.refs = []
        for spec, p in self.cases:
            c, sigma, phi = checks.exp_reference(spec, p.gamma, p.horizon)
            upper = checks.galerkin_solve(spec, p.gamma, p.horizon, self.COARSE)[0]
            self.refs.append((_rows(spec, p.horizon, self.CELLS), c, sigma, phi, upper))

    def warmup(self):
        for i in range(4):
            self._op(i)

    def _op(self, i):
        fh = self.fh
        p = self.cases[i][1]
        grid = fh.discrete.solve(p, self.CELLS)
        cf = fh.exponential.build_closed_form(p.kernel, p.gamma, p.horizon)
        mids = grid.midpoints()
        at_mids = fh.exponential.eval_closed_form(cf, mids)
        diff = fh.diagnostics.compare(
            fh.diagnostics.SampledSolution(t=mids, phi=grid.values, sigma=grid.sigma),
            fh.diagnostics.SampledSolution(t=mids, phi=at_mids, sigma=cf.sigma),
        )
        t = np.linspace(0.0, p.horizon, self.SAMPLES)
        curve = fh.exponential.eval_closed_form(cf, t)
        report = fh.diagnostics.analyze(curve, p.horizon, max_order=6)
        return grid, cf, diff, curve, report

    def operations(self):
        return [(i, lambda i=i: self._op(i)) for i in range(self.POOL)]

    def check(self, i, result):
        grid, cf, diff, curve, report = result
        spec, p = self.cases[i]
        rows, c, sigma, phi, upper = self.refs[i]
        fails = checks.check_discrete(grid.values, grid.sigma, grid.energy, grid.residual_max,
                                      spec, p.gamma, p.horizon, rows, sigma, (self.COARSE, upper))
        fails += checks.check_roots(cf.c, c)
        fails += checks.check_value("closed-form sigma", cf.sigma, sigma, 1e-10)
        t = np.linspace(0.0, p.horizon, self.SAMPLES)
        fails += checks.check_curve("closed-form phi", curve, phi(t), 1e-9)
        if len(spec["a"]) == 1:
            c1, sigma1, phi1 = checks.one_term_phi(spec["a"][0], spec["b"][0], p.gamma, p.horizon, t)
            fails += checks.check_value("one-term root", cf.c[0], c1, 1e-13)
            fails += checks.check_value("one-term sigma", cf.sigma, sigma1, 1e-12)
            fails += checks.check_curve("one-term phi", curve, phi1, 1e-11)
        gap = np.abs(grid.values - phi(grid.midpoints()))
        fails += checks.check_value("compare max_abs", diff["max_abs"], float(gap.max()), 1e-6)
        fails += checks.check_value("compare sigma_rel_diff", diff["sigma_rel_diff"],
                                    abs(grid.sigma - sigma) / max(grid.sigma, sigma), 1e-6)
        if not report.verdicts["totally_monotone"]:
            fails.append("closed form of a completely monotone kernel is not totally monotone")
        if report.min_value != float(curve.min()):
            fails.append("analyze min_value is not the sample minimum")
        return fails


WORKLOADS = {
    "dense-grid": DenseGrid,
    "tabulated-sweep": TabulatedSweep,
    "closed-form-cli": ClosedFormCli,
    "small-grid-scan": SmallGridScan,
}
