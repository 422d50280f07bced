"""Self-test of the benchmark's checks: none of them passes vacuously.

Each case takes a real result from ``fredholm``, confirms that the checks
accept it, perturbs it in one way (phi scaled by 1.001, a shifted sigma, a
swapped secular root, ...) and confirms that the check aimed at that
perturbation reports it.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every perturbation is flagged and every unperturbed result
passes, 1 otherwise.
"""

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from worker import import_fredholm  # noqa: E402
from workloads import EXP2, CAPPED, ClosedFormCli, SmallGridScan, _rows  # noqa: E402

failures = []


def expect(label, fails, needle):
    """``needle`` None: the result must pass; else some message must contain it."""
    if needle is None:
        ok = not fails
    else:
        ok = any(needle in f for f in fails)
    print(("ok    " if ok else "FAIL  ") + label + ("" if needle is None else f"  -> {needle!r}"))
    if not ok:
        failures.append((label, fails))


def discrete_cases(fh):
    m, m0 = 256, 64
    for name, spec, gamma, horizon in (("exp2", EXP2, 0.5, 2.0), ("capped3", CAPPED, 0.1, 3.0)):
        grid = fh.discrete.solve(fh.discrete.Problem(gamma, horizon, fh.kernels.kernel_from_spec(spec)), m)
        if name == "exp2":
            lower = checks.exp_reference(spec, gamma, horizon)[1]
        else:
            lower = fh.special.capped_linear_solve(3, gamma).sigma
        upper = checks.galerkin_solve(spec, gamma, horizon, m0)[0]
        rows = _rows(spec, horizon, m)
        s = grid.sigma

        def run(values=grid.values, sigma=s, energy=grid.energy, residual=grid.residual_max):
            return checks.check_discrete(values, sigma, energy, residual, spec, gamma, horizon,
                                         rows, lower, (m0, upper))

        moved = grid.values.copy()
        moved[0] += 1e-4 * moved[0]
        moved[m // 2] -= 1e-4 * grid.values[0]
        expect(f"{name}: unperturbed discrete solution", run(), None)
        expect(f"{name}: phi * 1.001", run(values=grid.values * 1.001), "mass")
        expect(f"{name}: sigma negated", run(sigma=-s), "not positive")
        expect(f"{name}: energy * (1 + 1e-7)", run(energy=grid.energy * (1 + 1e-7)), "reported energy")
        expect(f"{name}: sigma * (1 + 1e-7)", run(sigma=s * (1 + 1e-7), energy=grid.energy * (1 + 1e-7)), "!= 2J")
        expect(f"{name}: mass moved between cells", run(values=moved), "exceeds reported max")
        expect(f"{name}: residual understated", run(residual=grid.residual_max / 10), "exceeds reported max")
        below = lower * (1 - 1e-9)
        expect(f"{name}: sigma below continuum", run(sigma=below, energy=below / 2), "below the continuum")
        above = upper * (1 + 1e-9)
        expect(f"{name}: sigma above sigma(64)", run(sigma=above, energy=above / 2), "above the coarser")
        mid = 0.5 * (lower + upper)
        expect(f"{name}: sigma between bounds, gap not O(h^2)", run(sigma=mid, energy=mid / 2), "O(h^2)")


def closed_form_cases(fh, workdir):
    scan = SmallGridScan(fh, 0, workdir)
    scan.prepare()
    for i in (0, 1):  # one-term and two-term problems
        result = scan._op(i)
        expect(f"scan[{i}]: unperturbed operation", scan.check(i, result), None)
        grid, cf, diff, curve, report = result
        if i == 1:
            swapped = replace(cf, c=cf.c[::-1].copy())
            expect("scan[1]: swapped secular roots", scan.check(i, (grid, swapped, diff, curve, report)),
                   "eigvals")
        else:
            nudged = replace(cf, c=cf.c * (1 + 1e-11))
            expect("scan[0]: root * (1 + 1e-11)", scan.check(i, (grid, nudged, diff, curve, report)),
                   "one-term root")
        shifted = replace(cf, normalization=cf.normalization * (1 + 1e-8))
        expect(f"scan[{i}]: closed-form sigma shifted", scan.check(i, (grid, shifted, diff, curve, report)),
               "closed-form sigma")
        expect(f"scan[{i}]: closed-form phi * 1.001", scan.check(i, (grid, cf, diff, curve * 1.001, report)),
               "closed-form phi")
        wrong = dict(diff, max_abs=diff["max_abs"] * 1.01)
        expect(f"scan[{i}]: compare max_abs off", scan.check(i, (grid, cf, wrong, curve, report)),
               "compare max_abs")
        flat = fh.diagnostics.analyze(np.ones_like(curve) - np.linspace(0, 1, curve.size) ** 2,
                                      cf.horizon, max_order=6)
        expect(f"scan[{i}]: non-monotone analyze report", scan.check(i, (grid, cf, diff, curve, flat)),
               "totally monotone")

    expect("sweep: sigma increasing", checks.check_strictly_decreasing([3.0, 2.0, 2.5]), "strictly")
    expect("sweep: sigma decreasing", checks.check_strictly_decreasing([3.0, 2.0, 1.5]), None)
    sigma, phi = checks.trig_reference(0.5, 0.001, 1.0)
    t = np.linspace(0.0, 1.0, 513)
    expect("trig: reference minimum negative", checks.check_negative_minimum(phi(t)), None)
    expect("trig: minimum made nonnegative", checks.check_negative_minimum(np.abs(phi(t))), "not negative")
    smooth = 1.0 + 0.1 * (t - 0.5) ** 2
    expect("capped: convex curve is no hump", checks.check_hump(smooth, t[1]), "convex")


def cli_cases(fh, workdir):
    cli = ClosedFormCli(fh, 0, workdir)
    cli.prepare()
    result = cli._pass()
    expect("cli: unperturbed pass", cli.check("pass", result), None)

    def with_summary(name, **changes):
        code, text = result[name]
        return dict(result, **{name: (code, json.dumps(dict(json.loads(text), **changes)))})

    sigma = json.loads(result["capped3"][1])["sigma"]
    expect("cli: capped3 sigma * (1 + 1e-6)", cli.check("pass", with_summary("capped3", sigma=sigma * (1 + 1e-6))),
           "Richardson")
    sigma = json.loads(result["exp2"][1])["sigma"]
    expect("cli: exp2 sigma * (1 + 1e-9)", cli.check("pass", with_summary("exp2", sigma=sigma * (1 + 1e-9))),
           "exp2: sigma")
    report = json.loads(result["verify"][1])
    report["similarity"]["error"] = 2 * report["similarity"]["tol"]
    bad_verify = dict(result, verify=(0, json.dumps(report)))
    expect("cli: verify error above tolerance", cli.check("pass", bad_verify), "similarity")
    expect("cli: nonzero exit code", cli.check("pass", dict(result, trig=(1, ""))), "exit code")

    for name, needle in (("hump", "mass"), ("trig", "trig: phi")):
        path = cli._base(name) + ".csv"
        with open(path) as fh_csv:
            lines = fh_csv.read().splitlines()
        scaled = [line if line.startswith("#") or line == "t,phi" else
                  "%.17g,%.17g" % (float(line.split(",")[0]), 1.001 * float(line.split(",")[1]))
                  for line in lines]
        with open(path, "w") as fh_csv:
            fh_csv.write("\n".join(scaled) + "\n")
        expect(f"cli: {name} csv phi * 1.001", cli.check("pass", result), needle)


def main():
    fh = import_fredholm()
    scratch = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        discrete_cases(fh)
        closed_form_cases(fh, workdir)
        cli_cases(fh, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-test case(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
