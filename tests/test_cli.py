"""CLI behavior: config validation, artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from fredholm import _quad, cli, discrete, exponential, special
from fredholm.errors import IllConditionedError, IndefiniteKernelError, LevinsonLimitError
from fredholm.kernels import kernel_from_spec

import oracles


def write_config(path, **overrides):
    doc = {
        "kernel": {"type": "exponential_sum", "a": [1.0], "b": [1.0]},
        "gamma": 1.0,
        "horizon": 1.0,
        "cells": 128,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def strict_json(text):
    """Parse one JSON document, refusing the Infinity and NaN extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def run_module(path, *args, command="solve", prelude=""):
    """``python -m fredholm command --config path *args`` in a fresh interpreter, after ``prelude``.

    The process runs with one BLAS thread and is killed after 30 s."""
    argv = ["fredholm", command, "--config", path, *args]
    code = (f"import runpy, sys; {prelude}sys.argv = {argv!r}; "
            "runpy.run_module('fredholm', run_name='__main__')")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def assert_one_json_document(proc, code):
    """Exit ``code``, with a passing summary on stdout and nothing on stderr, or
    nothing on stdout and one strict JSON error object on stderr."""
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert strict_json(proc.stdout)["passed"] is True
    else:
        assert proc.stdout == ""
        assert isinstance(strict_json(proc.stderr), dict), proc.stderr


# ------------------------------------------------------------- config parsing

def test_unknown_fields_rejected(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", bogus=1)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc == {"error": "config has unknown fields: bogus", "detail": {"fields": ["bogus"]}}


@pytest.mark.parametrize(
    "overrides",
    [
        {"gamma": -1.0},
        {"gamma": "one"},
        {"horizon": 0.0},
        {"method": "magic"},
        {"cells": 1},
        {"kernel": {"type": "nope"}},
        {"kernel": {"type": "exponential_sum", "a": [1.0]}},
        {"diagnostics": {"max_order": 1}},
        {"diagnostics": {"tol": -1.0}},
        {"output": {"format": "xml"}},
        {"cells": 40},  # 41 samples, fewer than 8 * max_order = 48
        {"cells": cli.MAX_CELLS + 1},  # refused before any array is allocated
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path / "c.json", **overrides)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2, err
    assert json.loads(err)["error"]


@pytest.mark.parametrize("overrides, flag, value, error", [
    ({"cells": "many"}, "--cells", "64", f"cells must be an integer from 2 to {cli.MAX_CELLS}"),
    ({"diagnostics": {"max_order": 1}}, "--max-order", "4", "diagnostics.max_order must be an integer >= 2"),
    ({"output": {"format": "xml"}}, "--format", "csv", "'output.format' must be 'csv' or 'json'"),
    ({"output": {"path": ""}}, "--out", "curve", "output.path must be a non-empty string"),
], ids=["cells", "max_order", "format", "path"])
def test_overridden_config_values_are_checked(tmp_path, capsys, overrides, flag, value, error):
    # a flag replaces a config value only after the value passes its own check
    path = write_config(tmp_path / "c.json", **overrides)
    if flag == "--out":
        value = str(tmp_path / value)
    code, out, err = run_main(["solve", "--config", path, flag, value], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize(
    "argv, overrides",
    [
        (["solve"], {"horizon": math.inf}),
        (["solve"], {"gamma": math.inf}),
        (["solve"], {"gamma": math.nan}),
        (["solve"], {"diagnostics": {"tol": math.inf}}),
        (["sweep", "--gammas", "inf,1.0"], {}),
        (["solve"], {"gamma": 10**400}),  # an integer literal beyond the float range
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, overrides):
    # json.load accepts Infinity and NaN; they are config errors, not tracebacks
    path = write_config(tmp_path / "c.json", **overrides)
    code, out, err = run_main([argv[0], "--config", path, *argv[1:]], capsys)
    assert code == 2, err
    assert out == ""
    assert "finite" in json.loads(err)["error"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_main(["solve", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "cannot read config" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "method, kernel, message",
    [
        ("exp_closed_form", {"type": "capped_linear"},
         "method exp_closed_form requires an exponential_sum kernel"),
        ("capped_linear", {"type": "exponential_sum", "a": [1.0], "b": [1.0]},
         "method capped_linear requires capped_linear kernel with cap = 1"),
        ("capped_linear", {"type": "capped_linear", "cap": 0.5},
         "method capped_linear requires capped_linear kernel with cap = 1"),
        ("trig", {"type": "exponential_sum", "a": [1.0], "b": [1.0]},
         "method trig requires a trigonometric kernel"),
    ],
    ids=["exp_closed_form", "capped_linear-kernel", "capped_linear-cap", "trig"],
)
def test_method_kernel_mismatch(tmp_path, capsys, method, kernel, message):
    path = write_config(tmp_path / "c.json", method=method, kernel=kernel)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == message


@pytest.mark.parametrize("kernel, message", [
    ({"type": "capped_linear", "cap": True}, "cap must be positive and finite"),
    ({"type": "power_law", "alpha": 0.5, "scale": True}, "scale must be positive and finite"),
    ({"type": "power_capped", "rho": 10.0, "p": True}, "p must be a positive integer"),
    ({"type": "exponential_sum", "a": ["1.5"], "b": [1.0]},
     "exponential sum weights a must be positive and finite"),
    ({"type": "tabulated", "t": ["0", "1"], "g": [1.0, 0.5]},
     "tabulated abscissae t must be nonnegative and finite"),
    ({"type": "trigonometric", "rho": "0.5"}, "rho must be positive and finite"),
], ids=["cap", "scale", "p", "a", "t", "rho"])
def test_non_number_kernel_fields_exit_2(tmp_path, capsys, kernel, message):
    # a bool or a string where a number belongs is a config error, never a number
    path = write_config(tmp_path / "c.json", kernel=kernel)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2, err
    assert out == ""
    assert strict_json(err) == {"error": f"bad kernel spec: {message}", "detail": {"kernel": kernel}}


_KINDS = "capped_linear, exponential_sum, power_capped, power_law, tabulated, trigonometric"


def _spec_error(message, kernel):
    return {"error": f"bad kernel spec: {message}", "detail": {"kernel": kernel}}


@pytest.mark.parametrize("argv, overrides, error", [
    *((["solve"], {"output": {"path": path}},
      {"error": "output.path must be a non-empty string", "detail": {"got": path}})
      for path in (5, True, ["a"], "")),
    *((argv + ["--out", ""], {}, {"error": "--out must be a non-empty string", "detail": {"got": ""}})
      for argv in (["solve"], ["compare"], ["sweep", "--gammas", "1,0.5"])),
    (["solve"], {"diagnostics": {"max_ordr": 3}},
     {"error": "diagnostics has unknown fields: max_ordr", "detail": {"fields": ["max_ordr"]}}),
    (["solve"], {"output": {"pth": "x", "formt": "json"}},
     {"error": "output has unknown fields: pth, formt", "detail": {"fields": ["pth", "formt"]}}),
    *((["solve"], {"kernel": kernel},
       _spec_error("exponential sum weights a must be a list of numbers", kernel))
      for kernel in ({"type": "exponential_sum", "a": 5, "b": [1.0]},
                     {"type": "exponential_sum", "a": None, "b": [1.0]})),
    (["solve"], {"kernel": {"type": ["trigonometric"], "rho": 0.5}},
     _spec_error(f"unknown kernel type ['trigonometric']; expected one of: {_KINDS}",
                 {"type": ["trigonometric"], "rho": 0.5})),
    (["solve"], {"kernel": {"type": "tabulated", "t": {"x": 1}, "g": [1.0, 0.5]}},
     _spec_error("tabulated abscissae t must be a list of numbers",
                 {"type": "tabulated", "t": {"x": 1}, "g": [1.0, 0.5]})),
], ids=["path-5", "path-true", "path-list", "path-empty", "out-solve", "out-compare", "out-sweep",
        "diagnostics-unknown", "output-unknown", "a-5", "a-null", "type-list", "t-object"])
def test_malformed_structure_is_one_config_error(tmp_path, capsys, argv, overrides, error):
    # each names its object and its field, and nothing is written
    path = write_config(tmp_path / "c.json", cells=64, **overrides)
    configs = [path, path] if argv[0] == "compare" else ["--config", path]
    code, out, err = run_main([argv[0], *configs, *argv[1:]], capsys)
    assert code == 2, err
    assert out == ""
    assert strict_json(err) == error
    assert os.listdir(tmp_path) == ["c.json"]


def test_capped_method_needs_integer_horizon(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        kernel={"type": "capped_linear"},
        horizon=2.5,
        method="capped_linear",
    )
    code, _, err = run_main(["solve", "--config", path], capsys)
    assert code == 2
    assert "integer horizon" in json.loads(err)["error"]


# ------------------------------------------------------------------ solve runs

def test_solve_summary_and_artifacts(tmp_path, capsys):
    path = write_config(tmp_path / "c.json")
    out_base = tmp_path / "run"
    code, out, _ = run_main(
        ["solve", "--config", path, "--out", str(out_base), "--format", "csv"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["method"] == "exp_closed_form"
    assert summary["sigma"] == pytest.approx(1.7337312449228033, rel=1e-13)
    assert summary["passed"] is True
    assert all(summary["checks"].values())
    assert summary["monotonicity"]["verdicts"]["totally_monotone"] is True

    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    header = [ln for ln in csv_lines if ln.startswith("#")]
    assert any(ln.startswith("# kernel:") for ln in header)
    assert any(ln.startswith("# sigma:") for ln in header)
    assert csv_lines[len(header)] == "t,phi"
    assert len(csv_lines) == len(header) + 1 + 129  # cells + 1 samples

    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["sigma"] == summary["sigma"]


def test_solve_json_artifact_contains_curve(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", output={"format": "json"})
    code, out, _ = run_main(
        ["solve", "--config", path, "--out", str(tmp_path / "run.json")], capsys
    )
    assert code == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    assert len(doc["t"]) == 129
    assert len(doc["phi"]) == 129
    assert doc["phi"][0] == pytest.approx(doc["phi"][-1], rel=1e-12)


def test_solve_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", cells=64)
    outputs = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        code, out, _ = run_main(
            ["solve", "--config", path, "--out", str(base)], capsys
        )
        assert code == 0
        outputs.append((out, (tmp_path / f"{tag}.csv").read_bytes(),
                        (tmp_path / f"{tag}.json").read_bytes()))
    assert outputs[0] == outputs[1]


_HUMP = {"kernel": {"type": "capped_linear"}, "gamma": 0.01, "horizon": 11.0}
_EXP2_DISCRETE = {"kernel": {"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]},
                  "gamma": 0.5, "horizon": 2.0, "method": "discrete"}


# -------------------------------------------------------------- artifact writer

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rewritten_solve_artifacts_match_a_fresh_path(tmp_path, capsys, fmt):
    # artifacts are rewritten in place: a long run's bytes must not outlive a
    # shorter rewrite, and the files keep their inode and mode
    path = write_config(tmp_path / "c.json", **_HUMP)
    suffixes = (".csv", ".json") if fmt == "csv" else (".json",)
    reused = str(tmp_path / "reused")
    assert run_main(["solve", "--config", path, "--cells", "2048", "--format", fmt,
                     "--out", reused], capsys)[0] == 0
    for suffix in suffixes:
        os.chmod(reused + suffix, 0o600)
    before = {suffix: os.stat(reused + suffix) for suffix in suffixes}
    for base in (reused, str(tmp_path / "fresh")):
        code, _, err = run_main(["solve", "--config", path, "--cells", "64", "--format", fmt,
                                 "--out", base], capsys)
        assert code == 0, err
    for suffix in suffixes:
        after = os.stat(reused + suffix)
        assert (after.st_ino, after.st_mode) == (before[suffix].st_ino, before[suffix].st_mode)
        assert after.st_size < before[suffix].st_size
        assert (tmp_path / f"reused{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()


def test_rewritten_sweep_and_compare_documents_match_a_fresh_path(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", cells=64)
    sweep = ["sweep", "--config", path, "--gammas"]
    compare = ["compare", path, path, "--grid-points", "11"]
    reused = tmp_path / "reused.json"
    for argv in (sweep + ["1,0.5,0.2,0.1,0.05,0.02"], sweep + ["1,0.5"], compare):
        reused.write_text("x" * 50_000)  # longer than either document
        fresh = tmp_path / "fresh.json"
        fresh.unlink(missing_ok=True)
        for out in (reused, fresh):
            code, stdout, err = run_main(argv + ["--out", str(out)], capsys)
            assert code == 0, err
        assert reused.read_bytes() == fresh.read_bytes() == stdout.encode()


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", cells=64)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 50_000)
    link.symlink_to(target)
    code, out, _ = run_main(["sweep", "--config", path, "--gammas", "1,0.5", "--out", str(link)],
                            capsys)
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == out


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
def test_out_to_a_device_writes_no_length(tmp_path, capsys):
    # a device or a pipe takes the document as open(path, "w") would, with no cut to length
    path = write_config(tmp_path / "c.json", cells=64)
    code, out, _ = run_main(["sweep", "--config", path, "--gammas", "1,0.5", "--out", os.devnull],
                            capsys)
    assert code == 0
    assert strict_json(out)["entries"]


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--gammas", "1,0.5"]])
def test_out_in_a_missing_directory_is_one_io_error(tmp_path, capsys, argv):
    path = write_config(tmp_path / "c.json", cells=64)
    code, out, err = run_main([*argv, "--config", path, "--out", str(tmp_path / "no" / "run")],
                              capsys)
    assert code == 1
    assert out == ""
    assert strict_json(err)["error"].startswith("i/o failure")


@pytest.mark.parametrize("overrides", [
    {"cells": 1024},
    {"kernel": {"type": "trigonometric", "rho": 0.5}, "gamma": 0.001, "cells": 512},
    {**_HUMP, "cells": 2047},
    {**_HUMP, "cells": 2048},
    {**_EXP2_DISCRETE, "cells": 1023},
    {**_EXP2_DISCRETE, "cells": 1024},
    {**_EXP2_DISCRETE, "cells": 1026},  # m = 2 mod 4, the fold's other layout
    {**_EXP2_DISCRETE, "cells": 16383},  # odd, 3 * 43 * 127
], ids=["exp", "trig", "capped-2047", "capped-2048", "discrete-1023", "discrete-1024",
        "discrete-1026", "discrete-16383"])
def test_every_curve_is_even_and_its_csv_is_plain(tmp_path, capsys, overrides):
    # every route's phi equals its reversal bit for bit, and the CSV that
    # formats half of it once reads as the plain %.17g rows of (t, phi)
    # under a header whose sigma is the summary's
    path = write_config(tmp_path / "c.json", **overrides)
    cfg = cli.parse_config(path)
    res = cli._ROUTES[cfg.method].solve(cfg)
    assert res.phi.tobytes() == res.phi[::-1].tobytes()
    code, out, err = run_main(["solve", "--config", path, "--out", str(tmp_path / "run")], capsys)
    assert code == 0, out + err
    summary = strict_json(out)
    assert summary["passed"] is True
    assert summary["monotonicity"]["symmetry_err"] == 0.0
    header, _, body = (tmp_path / "run.csv").read_text().partition("t,phi\n")
    assert next(float(ln.split(":")[1]) for ln in header.splitlines()
                if ln.startswith("# sigma:")) == summary["sigma"]
    flat = tuple(np.column_stack((res.t, res.phi)).ravel().tolist())
    assert body == ("%.17g,%.17g\n" * res.t.size) % flat


def test_closed_form_grid_pairs_each_sample_with_its_mirror(tmp_path):
    # at 2047 cells and T 11 the step T/cells is inexact and linspace's right
    # half misses T - t by up to 1.8e-15; the right half is T minus the left,
    # so every mirror pair (j, n-1-j) of the even curve sits on t_j, T - t_j
    cfg = cli.parse_config(write_config(tmp_path / "c.json", **_HUMP, cells=2047))
    t = cli._ROUTES[cfg.method].solve(cfg).t
    n = t.size
    j = np.arange(n // 2)
    np.testing.assert_array_equal(t[n - 1 - j], 11.0 - t[j])
    np.testing.assert_array_equal(t[: n // 2], np.linspace(0.0, 11.0, n)[: n // 2])
    assert t[-1] == 11.0 and np.all(np.diff(t) > 0)


def test_discrete_method_run(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", method="discrete", cells=256)
    code, out, _ = run_main(["solve", "--config", path], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["method"] == "discrete"
    assert summary["checks"]["unit_mass"] is True
    assert summary["sigma"] == pytest.approx(1.7337312449228033, rel=1e-4)


def test_counterexample_run_succeeds(tmp_path, capsys):
    # a negative-valued solution is a finding, not a failure
    path = write_config(
        tmp_path / "c.json",
        kernel={"type": "trigonometric", "rho": 0.5},
        gamma=0.001,
        cells=512,
    )
    code, out, _ = run_main(["solve", "--config", path, "--out",
                             str(tmp_path / "curve")], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["method"] == "trig"
    assert summary["monotonicity"]["min_value"] < 0
    assert summary["passed"] is True
    body = (tmp_path / "curve.csv").read_text()
    assert ",-" in body  # negative phi values present in the curve


_BUMP = {"type": "tabulated", "t": [0.0, 0.4, 0.5, 0.6, 1.0], "g": [0.01, 0.2, 1.0, 0.2, 0.01]}


def test_indefinite_kernel_exits_1(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        kernel=_BUMP,
        gamma=1e-6,
        cells=32,
    )
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    doc = json.loads(err)
    assert "positive type" in doc["error"]
    assert doc["detail"]["pivot"] == 2


@pytest.mark.parametrize("cells", [200, 256, 1024])
def test_discrete_cosine_kernel_meets_sigma_equals_two_energy(tmp_path, capsys, cells):
    # the cosine kernel's K has rank about 2: at gamma 1e-5, T 20 conjugate
    # gradients miss the embedding rung's cap and converge on the second and
    # last rung, the von Hann embedding, and the solution meets sigma = 2J to
    # the check's 1e-9
    path = write_config(tmp_path / "c.json", kernel={"type": "trigonometric", "rho": 0.5},
                        gamma=1e-5, horizon=20.0, method="discrete", cells=cells)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert abs(summary["sigma"] - 2.0 * summary["energy"]) <= 1e-9 * summary["sigma"]
    assert all(summary["checks"].values()), summary["checks"]


def test_levinson_above_its_size_is_refused(tmp_path):
    # the bump has no positive-type claim, so its rows are left to the O(m^2)
    # Levinson-Durbin loop, which is refused above its size before it starts
    cells = discrete._LEVINSON_MAX_CELLS + 1
    path = write_config(tmp_path / "c.json", gamma=1.0, horizon=1.0, method="discrete",
                        cells=cells, kernel=_BUMP)
    proc = run_module(path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    doc = strict_json(proc.stderr)
    assert doc["error"].startswith("Levinson-Durbin solve refused")
    assert doc["detail"] == {"cells": cells, "limit": discrete._LEVINSON_MAX_CELLS,
                             "cause": "the kernel has no positive-type claim"}


def test_trig_pole_exits_0(tmp_path, capsys):
    # rho*T/2 = pi/2 + k pi is a pole of the classical beta only; the solution is regular
    for horizon in (math.pi, 3.0 * math.pi):
        path = write_config(tmp_path / "c.json", kernel={"type": "trigonometric", "rho": 1.0},
                            gamma=0.1, horizon=horizon)
        code, out, err = run_main(["solve", "--config", path], capsys)
        assert code == 0, out + err
        summary = json.loads(out)
        assert summary["method"] == "trig"
        assert all(summary["checks"].values()), summary["checks"]


@pytest.mark.parametrize("gamma", [1e-4, 1e-5, 1e-6, 1e-8])
def test_capped_boundary_layers_pass_every_check(tmp_path, capsys, gamma):
    # boundary layers exp(-b s) with b up to ~18,000 must be resolved by the
    # verification quadrature, or a correct closed form is reported as failed;
    # at 1e-6, e^b would overflow in a basis of growing exponentials
    path = write_config(tmp_path / "c.json", kernel={"type": "capped_linear"},
                        gamma=gamma, horizon=3.0, cells=1024)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert summary["method"] == "capped_linear"
    assert all(summary["checks"].values()), summary["checks"]


_STEEP_EXP = {"type": "exponential_sum", "a": [1, 1, 0.5], "b": [1, 4, 30]}


@pytest.mark.parametrize("overrides", [
    {"kernel": {"type": "capped_linear"}, "gamma": 2.1e-9, "horizon": 3.0},
    {"kernel": {"type": "capped_linear"}, "gamma": 1e-6, "horizon": 40.0},
    {"kernel": _STEEP_EXP, "gamma": 1e-8, "horizon": 2.0},
    {"kernel": _STEEP_EXP, "gamma": 1e-8, "horizon": 200.0},
])
def test_steep_layers_keep_energy_and_mass(tmp_path, overrides):
    # the graded panels of the energy and mass integrals resolve layers of
    # rate 4e4 (capped) and 3.4e4 (exponential) within the unit-mass tolerance
    cfg = cli.parse_config(write_config(tmp_path / "c.json", cells=64, **overrides))
    res = cli._ROUTES[cfg.method].solve(cfg)
    assert abs(res.sigma - 2.0 * res.energy) <= 1e-12 * res.sigma
    assert res.mass_defect <= 1e-12


@pytest.mark.parametrize(
    "method, overrides",
    [
        ("exp_closed_form", {}),
        ("capped_linear", {"kernel": {"type": "capped_linear"}, "horizon": 3.0, "gamma": 0.1}),
        ("trig", {"kernel": {"type": "trigonometric", "rho": 0.5}, "gamma": 0.001}),
    ],
)
def test_auto_matches_explicit_closed_form(tmp_path, capsys, method, overrides):
    # auto resolves to the closed form, so every output byte is the explicit run's
    outputs = []
    for tag, chosen in (("auto", "auto"), ("explicit", method)):
        path = write_config(tmp_path / f"{tag}.json", method=chosen, **overrides)
        code, out, _ = run_main(["solve", "--config", path, "--out", str(tmp_path / tag)], capsys)
        assert code == 0
        assert json.loads(out)["method"] == method
        outputs.append((out, (tmp_path / f"{tag}.csv").read_bytes(),
                        (tmp_path / f"{tag}.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_trig_small_rho_and_gamma_pass_every_check(tmp_path, capsys):
    # phi ~ 1 is (sigma/gamma)(1 - beta (cos + cos)) with sigma/gamma ~ 1e5:
    # only the cancellation-free form keeps the unit-mass check
    path = write_config(tmp_path / "c.json", kernel={"type": "trigonometric", "rho": 0.001},
                        gamma=1e-5, horizon=1.0, cells=128)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert summary["method"] == "trig"
    assert all(summary["checks"].values()), summary["checks"]


@pytest.mark.parametrize("method", ["auto", "discrete"])
def test_trig_tiny_rho_is_the_constant_kernel(tmp_path, capsys, method):
    # rho^2 underflows at rho 1e-200: the closed form works in rho-scaled
    # terms and the lag row divides by rho before squaring, so both reach the
    # G = 1 limit phi = 1/T, sigma = gamma/T + 1
    gamma, horizon = 0.5, 2.0
    path = write_config(tmp_path / "c.json", kernel={"type": "trigonometric", "rho": 1e-200},
                        gamma=gamma, horizon=horizon, method=method, cells=1024)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert summary["method"] == ("trig" if method == "auto" else "discrete")
    assert summary["sigma"] == pytest.approx(gamma / horizon + 1.0, rel=0.0, abs=1e-12)


def test_exponential_far_boundary_layer_keeps_unit_mass(tmp_path, capsys):
    # a Gauss node near t = T carries ulp(T) into e^{-sqrt(c) (T - t)}: the
    # mass, taken on [0, T/2] and doubled, meets no such node
    path = write_config(tmp_path / "c.json",
                        kernel={"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]},
                        gamma=1e-12, horizon=2.0, cells=1024)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert summary["checks"]["unit_mass"] is True
    assert summary["mass_defect"] <= 1e-15


@pytest.mark.parametrize("overrides, module, convolution", [
    ({"kernel": {"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]},
      "gamma": 0.5, "horizon": 2.0}, exponential, "_convolution"),
    ({"kernel": {"type": "capped_linear"}, "gamma": 0.1, "horizon": 3.0},
     special, "_capped_convolution"),
    (_HUMP, special, "_capped_convolution"),
], ids=["exp2", "capped3", "hump"])
def test_closed_form_solve_convolves_each_check_point_once(tmp_path, capsys, monkeypatch,
                                                           overrides, module, convolution):
    # mass, energy and residual come from one evaluation of G * phi at the
    # Gauss nodes and edges of [0, T/2]: no point is convolved twice, none elsewhere
    seen = []
    original = getattr(module, convolution)
    monkeypatch.setattr(module, convolution, lambda *args: seen.append(args[-1]) or original(*args))
    passes = []
    for owner in (exponential, special):
        monkeypatch.setattr(owner, "even_check",
                            lambda *args: passes.append(args[-1]) or _quad.even_check(*args))
    path = write_config(tmp_path / "c.json", cells=256, **overrides)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    (edges,) = passes
    nodes, _ = _quad.gauss_panels(edges[:-1], edges[1:])
    points = np.concatenate(seen)
    assert edges[0] == 0.0 and edges[-1] == overrides["horizon"] / 2.0
    assert np.array_equal(points, np.concatenate((nodes.ravel(), edges)))
    assert np.unique(points).size == points.size


def test_trig_solve_takes_its_moment_once(tmp_path, capsys, monkeypatch):
    # the trig convolution M cos(rho (t - T/2)) needs one Gauss pass for M
    calls = []
    moment = special._trig_moment
    monkeypatch.setattr(special, "_trig_moment", lambda sol: calls.append(sol) or moment(sol))
    path = write_config(tmp_path / "c.json", kernel={"type": "trigonometric", "rho": 0.5},
                        gamma=0.001, horizon=1.0, cells=256)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    assert len(calls) == 1


def test_failed_check_reports_json_error(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path / "c.json")
    monkeypatch.setattr(cli, "_invariant_checks", lambda res: {"unit_mass": False})
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert json.loads(err)["detail"]["failed"] == ["unit_mass"]


# ------------------------------------------------------ robustness property

_ODD = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan])


def _mostly(strategy, other=_ODD):
    """``strategy`` four times in five, ``other`` otherwise."""
    return st.integers(0, 4).flatmap(lambda k: other if k == 4 else strategy)


# now and then a bool or a numeric string where a number belongs: a config error
_NUMBER = _mostly(st.floats(min_value=1e-3, max_value=20.0),
                  st.one_of(_ODD, st.booleans(), st.floats(1e-3, 20.0).map(str)))
# now and then a scalar, null, a string or an object where a list of numbers belongs
_NOT_A_LIST = st.one_of(_NUMBER, st.none(), st.text(max_size=3), st.just({"x": 1.0}))


def _list(strategy):
    return _mostly(strategy, _NOT_A_LIST)


_KERNELS = st.one_of(
    st.integers(1, 3).flatmap(lambda k: st.fixed_dictionaries({
        "type": st.just("exponential_sum"),
        "a": _list(st.lists(_NUMBER, min_size=k, max_size=k)),
        "b": _list(st.lists(_NUMBER, min_size=k, max_size=k, unique=True).map(
            lambda b: sorted(b, key=float)))})),
    st.fixed_dictionaries({"type": st.just("capped_linear")},
                          optional={"cap": _mostly(st.just(1.0), _NUMBER)}),
    st.fixed_dictionaries({"type": st.just("power_capped"), "rho": _NUMBER,
                           "p": _mostly(st.integers(1, 6), _NUMBER)}),
    st.fixed_dictionaries({"type": st.just("trigonometric"), "rho": _NUMBER}),
    st.fixed_dictionaries({"type": st.just("power_law"),
                           "alpha": _mostly(st.floats(0.05, 0.95))},
                          optional={"scale": _NUMBER}),
    st.integers(2, 5).flatmap(lambda k: st.fixed_dictionaries({
        "type": st.just("tabulated"),
        "t": _list(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k, unique=True).map(sorted)),
        "g": _list(st.lists(_NUMBER, min_size=k, max_size=k).map(
            lambda g: sorted(g, key=float)[::-1]))})),
)
_IN_TMP = "<a path in the test's temporary directory>"
_NOT_AN_OBJECT = st.one_of(st.none(), _NUMBER, st.text(max_size=3), st.lists(st.integers(), max_size=2))


def _object(fields):
    """An object of the optional ``fields`` four times in five; otherwise a non-object,
    or such an object with an unknown key."""
    valid = st.fixed_dictionaries({}, optional=fields)
    unknown = st.tuples(valid, st.sampled_from(["bogus", "max_ordr", "pth"])).map(
        lambda pair: {**pair[0], pair[1]: 1})
    return _mostly(valid, st.one_of(_NOT_AN_OBJECT, unknown))


_CONFIGS = st.fixed_dictionaries({
    "kernel": _KERNELS,
    "gamma": _mostly(st.floats(min_value=1e-5, max_value=10.0)),
    "horizon": _mostly(st.one_of(st.integers(1, 20).map(float), st.floats(0.05, 20.0))),
    "method": _mostly(st.just("auto"), st.sampled_from(cli._METHODS)),
    "cells": _mostly(st.integers(48, 256), st.integers(2, 47)),
}, optional={
    "diagnostics": _object({"max_order": st.integers(2, 6), "tol": st.one_of(st.none(), _NUMBER)}),
    # output.path of every JSON type; the one non-empty string is a path in the temporary directory
    "output": _object({"path": st.one_of(st.just(_IN_TMP), st.none(), st.just(""), st.booleans(),
                                         st.integers(), st.floats(), st.just({"x": 1}),
                                         st.lists(st.text(max_size=2), max_size=2)),
                       "format": st.sampled_from(["csv", "json"])}),
})


def _malformed(config):
    """Whether ``config`` holds a malformed structure: a kernel list, an object or a path."""
    kernel = config["kernel"]
    if any(not isinstance(kernel[f], list) for f in ("a", "b", "t", "g") if f in kernel):
        return True
    known = {"diagnostics": {"max_order", "tol"}, "output": {"path", "format"}}
    for name, fields in known.items():
        value = config.get(name, {})
        if not isinstance(value, dict) or not set(value) <= fields:
            return True
    path = config.get("output", {}).get("path")
    return path is not None and not (isinstance(path, str) and path)


_SUBNORMAL_TABLES = [{"type": "tabulated", "t": [0.0, 5e-324], "g": [1.0, 0.5]},
                     {"type": "tabulated", "t": [0.0, 5e-324, 1e-323], "g": [1.0, 0.5, 0.25]}]


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS, command=st.sampled_from(["solve", "verify"]))
@example(config={"kernel": _SUBNORMAL_TABLES[0], "gamma": 1.0, "horizon": 1.0, "method": "auto",
                 "cells": 48}, command="solve")
@example(config={"kernel": {"type": "capped_linear", "cap": True}, "gamma": 1.0, "horizon": 1.0,
                 "method": "auto", "cells": 48}, command="solve")
@example(config={"kernel": {"type": "exponential_sum", "a": ["1.5"], "b": [1.0]}, "gamma": 1.0,
                 "horizon": 1.0, "method": "auto", "cells": 48}, command="verify")
@example(config={"kernel": {"type": "capped_linear"}, "gamma": 1.0, "horizon": 1.0, "method": "auto",
                 "cells": 48, "output": {"path": 5}}, command="solve")
def test_cli_never_crashes(config, command):
    # any config ends in a documented exit code with a JSON error, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        output = config.get("output")
        if isinstance(output, dict) and output.get("path") == _IN_TMP:
            config = {**config, "output": {**output, "path": os.path.join(tmp, "out")}}
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())
    if code != 0:
        assert strict_json(err.getvalue())["error"]
    fields = [v for k, v in config["kernel"].items() if k != "type"]
    if any(isinstance(v, (bool, str)) for f in fields for v in (f if isinstance(f, list) else [f])):
        assert code == 2 and out.getvalue() == ""
    if _malformed(config):
        assert code == 2 and out.getvalue() == ""


@pytest.mark.parametrize("kernel", _SUBNORMAL_TABLES, ids=["one_gap", "two_gaps"])
def test_subnormal_knot_gap_is_one_config_error(tmp_path, kernel):
    # in a fresh process, where an overflow warning would reach stderr before the JSON
    path = write_config(tmp_path / "c.json", kernel=kernel, gamma=1.0, horizon=1.0, cells=48)
    proc = run_module(path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "slopes between neighbouring knots must be finite" in strict_json(proc.stderr)["error"]


@pytest.mark.parametrize("kernel, gamma, horizon, cells, solve", [
    (_BUMP, 1e-6, 3.0, 256,
     lambda k, g, T, m: discrete.solve(discrete.Problem(g, T, k), m)),
    ({"type": "exponential_sum", "a": [1e-20, 1.0], "b": [1e-20, 1.0]}, 0.5, 2.0, 1024,
     lambda k, g, T, m: exponential.build_closed_form(k, g, T)),
    (_BUMP, 1.0, 3.0, 65536,
     lambda k, g, T, m: discrete.solve(discrete.Problem(g, T, k), m)),
], ids=["pivot", "condition", "levinson_limit"])
def test_error_detail_is_the_exceptions_own(tmp_path, capsys, kernel, gamma, horizon, cells, solve):
    # each library error owns its detail; the CLI prints it as it is
    with pytest.raises((IndefiniteKernelError, IllConditionedError, LevinsonLimitError)) as info:
        solve(kernel_from_spec(kernel), gamma, horizon, cells)
    path = write_config(tmp_path / "c.json", kernel=kernel, gamma=gamma, horizon=horizon, cells=cells)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert (code, out) == (1, "")
    assert strict_json(err) == {"error": str(info.value), "detail": info.value.detail}
    assert info.value.detail  # pivot, condition, or cells, limit and cause


def test_infinite_condition_is_strict_json(tmp_path, capsys):
    # cond(Ntilde) overflows to inf; stderr must still be RFC 8259 JSON
    path = write_config(tmp_path / "c.json",
                        kernel={"type": "exponential_sum", "a": [1, 1], "b": [1e-40, 1]},
                        gamma=0.5, horizon=2)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    assert out == ""
    assert strict_json(err)["detail"]["condition"] == "inf"


# ------------------------------------------------------------ the JSON writer

_JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.1, 1e16, 1e-7]))
_JSON_STRINGS = st.one_of(st.text(max_size=8), st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "😀", 'a "quoted" key', ""]))
_JSON_DOCS = st.recursive(
    st.one_of(_JSON_STRINGS, st.integers(), _JSON_FLOATS, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=24)


@seed(24)
@settings(max_examples=400, deadline=None)
@given(doc=_JSON_DOCS)
def test_dumps_matches_the_json_module(doc):
    # the direct writer emits json.dumps(indent=2)'s bytes, with non-finite floats as strings
    assert cli._dumps(doc) == oracles.dumps(doc)


def test_every_document_matches_the_json_module(tmp_path, capsys, monkeypatch):
    # every route's summary, the json artifact, compare, sweep, verify and the
    # error documents (one with a non-finite detail) as the commands build them
    docs = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda doc: docs.append(doc) or dumps(doc))
    exp = write_config(tmp_path / "exp.json", cells=64)
    runs = [
        (0, ["solve", "--config", exp, "--out", str(tmp_path / "exp_out")]),
        (0, ["solve", "--config", write_config(tmp_path / "capped.json", kernel={"type": "capped_linear"},
                                               gamma=0.1, horizon=3.0, cells=64),
             "--format", "json", "--out", str(tmp_path / "capped_out")]),
        (0, ["solve", "--config", write_config(tmp_path / "trig.json", kernel=_TRIG_SPEC, gamma=0.001,
                                               cells=64)]),
        (0, ["solve", "--config", write_config(tmp_path / "discrete.json", method="discrete", cells=64)]),
        (0, ["compare", exp, exp, "--grid-points", "11"]),
        (0, ["sweep", "--config", exp, "--gammas", "1,0.5"]),
        (0, ["verify", "--config", exp]),
        (2, ["solve", "--config", write_config(tmp_path / "bad.json", gamma=-1.0)]),
        (1, ["solve", "--config", write_config(tmp_path / "inf.json", gamma=0.5, horizon=2.0,
                                               kernel={"type": "exponential_sum", "a": [1, 1],
                                                       "b": [1e-40, 1]})]),
    ]
    for code, argv in runs:
        assert run_main(argv, capsys)[0] == code, argv
    assert len(docs) == len(runs) + 1  # the capped solve writes its summary and its curve
    # a numpy scalar, such as a closed form's sigma, is written as its float repr
    docs.append({"sigma": np.float64("inf"), "energy": np.float64("nan"), "mass": np.float64(-0.0)})
    assert dumps(docs[-1]) == '{\n  "sigma": "inf",\n  "energy": "nan",\n  "mass": -0.0\n}\n'
    for doc in docs:
        assert dumps(doc) == oracles.dumps(doc)


@pytest.mark.parametrize("gamma", [1e-300, 5e-324])
def test_capped_tiny_gamma_refused(tmp_path, gamma):
    # refused before the junction solve: no "Singular matrix", no numpy warning
    path = write_config(tmp_path / "c.json", kernel={"type": "capped_linear"},
                        gamma=gamma, horizon=3.0)
    proc = run_module(path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "gamma too small" in strict_json(proc.stderr)["error"]


_X201 = np.linspace(-40.0, 20.0, 201)  # rates e^-40 .. e^20, sqrt(b) = e^x


@pytest.mark.parametrize("kernel, cause", [
    ({"type": "exponential_sum", "a": [1e-20, 1.0], "b": [0.5, 1.0]}, "rounds onto its pole"),
    ({"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 1.0 + 2.0**-52]}, "rounds onto its pole"),
    ({"type": "exponential_sum", "a": (0.3 * np.exp(_X201 / 2)).tolist(),
      "b": np.exp(2.0 * _X201).tolist()}, "ill-conditioned"),
    ({"type": "exponential_sum", "a": [1e-20, 1.0], "b": [1e-20, 1.0]}, "ill-conditioned"),
    ({"type": "exponential_sum", "a": [1e300], "b": [1e-300]}, "underflows to 0"),
], ids=["tiny-weight", "nearly-equal-rates", "201-terms", "root-next-to-its-pole", "d-underflows"])
def test_exponential_root_on_its_pole_is_one_json_error(tmp_path, kernel, cause):
    # in a fresh process, where no numpy warning and no LAPACK message
    # (printed to stdout) can come before the one JSON error
    path = write_config(tmp_path / "c.json", kernel=kernel, gamma=0.5, horizon=2.0)
    proc = run_module(path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert cause in strict_json(proc.stderr)["error"], proc.stderr


@pytest.mark.parametrize("overrides, cause", [
    ({"gamma": 0.5, "horizon": 5e-324, "kernel": {"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]}},
     "sqrt(c) T underflows to 0"),
    ({"gamma": 1.0, "horizon": 2.0, "kernel": {"type": "exponential_sum", "a": [1e300], "b": [1e-300]}},
     "underflows to 0: the kernel's weight"),
], ids=["subnormal-horizon", "d-underflows"])
def test_verify_refuses_what_solve_refuses(tmp_path, overrides, cause):
    # in a fresh process with warnings as errors: exit 1, nothing on stdout, one JSON error
    path = write_config(tmp_path / "c.json", **overrides)
    for command in ("solve", "verify"):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fredholm", command, "--config", path],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert cause in strict_json(proc.stderr)["error"], proc.stderr


def test_root_next_to_its_pole_is_refused_on_its_condition(tmp_path, capsys):
    # c_1 = 1e-20 + 8e-31 is measured from its pole b_1 = 1e-20 (absolute
    # bisection gave 4.4e-19, and the run printed a failed summary with sigma
    # 0.018); the system of that root is ill-conditioned, and the error says so
    path = write_config(tmp_path / "c.json", gamma=0.5, horizon=2.0,
                        kernel={"type": "exponential_sum", "a": [1e-20, 1.0], "b": [1e-20, 1.0]})
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    assert out == ""
    doc = strict_json(err)
    assert "ill-conditioned" in doc["error"]
    assert 1e19 < doc["detail"]["condition"] < 1e21


EXP2_SPEC = {"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]}
DISCRETE_HUGE = dict(horizon=1e300, method="discrete", cells=64)


@pytest.mark.parametrize("kernel, overrides, code", [
    # diagnostics.analyze scales its minima to 0 instead of overflowing: a valid solve
    (EXP2_SPEC, DISCRETE_HUGE, 0),
    (EXP2_SPEC, dict(horizon=1e308), 1),  # overflows in the graded panels of the exponential checks
    # the kernel rows overflow: no numpy warning may reach stderr first
    ({"type": "power_law", "alpha": 0.5}, DISCRETE_HUGE, 1),
    ({"type": "capped_linear"}, DISCRETE_HUGE, 0),
    ({"type": "tabulated", "t": [0.0, 1.0], "g": [1.0, 0.5]}, DISCRETE_HUGE, 1),
], ids=["discrete-1e300", "exp_closed_form-1e308", "power_law-1e300", "capped_linear-1e300",
        "tabulated-1e300"])
def test_huge_horizon_is_one_json_error(tmp_path, kernel, overrides, code):
    path = write_config(tmp_path / "c.json", gamma=1e-4, kernel=kernel, **overrides)
    assert_one_json_document(run_module(path), code)


_TRIG_SPEC = {"type": "trigonometric", "rho": 0.5}
_POWER_LAW_SPEC = {"type": "power_law", "alpha": 0.5}
_TABULATED_SPEC = {"type": "tabulated", "t": [0.0, 1.0], "g": [1.0, 0.5]}


_EXTREME = [(f"{name}-{horizon:g}", kernel, method, horizon)
            for horizon in (1e-300, 1e-100)
            for name, kernel, method in (("exp_closed_form", EXP2_SPEC, "exp_closed_form"),
                                         ("trig", _TRIG_SPEC, "trig"),
                                         ("power_law", _POWER_LAW_SPEC, "discrete"),
                                         ("tabulated", _TABULATED_SPEC, "discrete"))]
_EXTREME.append(("exp_closed_form-1e60", EXP2_SPEC, "exp_closed_form", 1e60))


@pytest.mark.parametrize("kernel, method, horizon", [case[1:] for case in _EXTREME],
                         ids=[case[0] for case in _EXTREME])
def test_extreme_horizon_ends_in_at_most_one_json_object(tmp_path, kernel, method, horizon):
    # the shape scan's h^k scaling under- or overflows here; it reports 0 or
    # inf, and the closed-form checks run with numpy's warnings off, so
    # nothing but the one error document reaches stderr
    path = write_config(tmp_path / "c.json", kernel=kernel, gamma=0.5, horizon=horizon,
                        method=method, cells=64)
    proc = run_module(path)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    assert proc.stderr == "" or isinstance(strict_json(proc.stderr), dict), proc.stderr
    assert strict_json(proc.stdout)["passed"] is (proc.returncode == 0)


@pytest.mark.parametrize("kernel, method", [(EXP2_SPEC, "exp_closed_form"), (_TRIG_SPEC, "trig")],
                         ids=["exp_closed_form", "trig"])
def test_tiny_horizon_energy_is_half_sigma(tmp_path, capsys, kernel, method):
    # phi is about 1/T = 1e300: the check weights phi before it multiplies it by
    # gamma phi + G * phi, so the energy is sigma/2 = 2.5e299, not inf
    path = write_config(tmp_path / "c.json", kernel=kernel, gamma=0.5, horizon=1e-300,
                        method=method, cells=64)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, err
    summary = strict_json(out)
    assert summary["energy"] == pytest.approx(summary["sigma"] / 2.0, rel=1e-12)


@pytest.mark.parametrize("horizon, code", [(4.0 * special.MAX_TRIG_PANELS, 0), (1e60, 1)],
                         ids=["at-the-bound", "1e60"])
def test_trig_panel_bound(tmp_path, capsys, horizon, code):
    # rho 0.5 needs rho T / 2 panels: T 1e60 is refused with the count, not with
    # numpy's "Maximum allowed size exceeded"; the bound itself still solves
    path = write_config(tmp_path / "c.json", kernel=_TRIG_SPEC, gamma=0.5, horizon=horizon, cells=64)
    got, out, err = run_main(["solve", "--config", path], capsys)
    assert got == code, err
    if code == 0:
        assert strict_json(out)["passed"] is True
    else:
        assert out == ""
        assert strict_json(err)["error"] == (
            f"trig check needs {math.ceil(horizon / 4.0)} Gauss panels on [0, T/2], "
            f"above its bound of {special.MAX_TRIG_PANELS}")


# ------------------------------------------------------------ other commands

def test_compare_exp_vs_discrete(tmp_path, capsys):
    a = write_config(tmp_path / "a.json")
    b = write_config(tmp_path / "b.json", method="discrete", cells=512)
    code, out, _ = run_main(["compare", a, b, "--grid-points", "301"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method_a"] == "exp_closed_form"
    assert doc["method_b"] == "discrete"
    assert doc["max_abs"] <= 5e-3
    assert doc["sigma_rel_diff"] <= 1e-6


def test_compare_horizon_mismatch(tmp_path, capsys):
    a = write_config(tmp_path / "a.json")
    b = write_config(tmp_path / "b.json", horizon=2.0)
    code, _, err = run_main(["compare", a, b], capsys)
    assert code == 2
    assert "horizon" in json.loads(err)["error"]


@pytest.mark.parametrize("points", ["1", str(cli.MAX_CELLS + 1)])
def test_compare_grid_points_out_of_range(tmp_path, capsys, points):
    # refused before the shared grid is allocated, like an oversized 'cells'
    a = write_config(tmp_path / "a.json")
    code, out, err = run_main(["compare", a, a, "--grid-points", points], capsys)
    assert code == 2
    assert out == ""
    assert "grid_points" in strict_json(err)["error"]


def test_sweep_endpoint_mass_growth(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", cells=96)
    code, out, _ = run_main(
        ["sweep", "--config", path, "--gammas", "1.0,0.2,0.04"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    masses = [e["endpoint_mass"] for e in doc["entries"]]
    assert masses == sorted(masses)
    assert all(e["sigma"] > 0 for e in doc["entries"])


def test_sweep_accepts_unsorted_gammas(tmp_path, capsys):
    # the entries keep the order of --gammas, and each gamma its sorted-sweep bits
    path = write_config(tmp_path / "c.json")
    runs = {}
    for gammas in ("0.1,0.5", "0.5,0.1"):
        code, out, err = run_main(["sweep", "--config", path, "--gammas", gammas], capsys)
        assert code == 0, err
        runs[gammas] = strict_json(out)["entries"]
    assert [e["gamma"] for e in runs["0.1,0.5"]] == [0.1, 0.5]
    assert runs["0.1,0.5"] == runs["0.5,0.1"][::-1]


def test_verify_command(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        kernel={"type": "exponential_sum", "a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 5.0]},
        gamma=0.2,
    )
    code, out, _ = run_main(["verify", "--config", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["cauchy_inverse"]["passed"] is True


def test_verify_requires_exponential_kernel(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", kernel={"type": "capped_linear"})
    code, _, err = run_main(["verify", "--config", path], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"kernel": {"type": "capped_linear"}, "horizon": 3.0, "gamma": 0.1},
        {"kernel": {"type": "trigonometric", "rho": 0.5}, "gamma": 0.001},
        {"kernel": {"type": "power_law", "alpha": 0.5}, "cells": 256},
    ],
    ids=["exp_closed_form", "capped_linear", "trig", "discrete"],
)
def test_every_route_runs_without_scipy(tmp_path, request, overrides):
    # scipy is a test dependency only: with its import blocked, every route solves
    path = write_config(tmp_path / "c.json", **overrides)
    proc = run_module(path, prelude="sys.modules['scipy'] = None; ")
    assert proc.returncode == 0, proc.stderr
    assert strict_json(proc.stdout)["method"] == request.node.callspec.id


def test_main_reused_in_process_matches_fresh_processes(tmp_path, monkeypatch):
    # one process calls main repeatedly, after an argparse exit too, and
    # writes the same bytes as a fresh `python -m fredholm` for every argv
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    routes = {
        "exp": {},
        "capped": {"kernel": {"type": "capped_linear"}, "horizon": 3.0, "gamma": 0.1},
        "trig": {"kernel": {"type": "trigonometric", "rho": 0.5}, "gamma": 0.001},
        "discrete": {"kernel": {"type": "power_law", "alpha": 0.5}},
    }
    configs = {name: write_config(tmp_path / f"{name}.json", **o) for name, o in routes.items()}
    runs = {"bad": ["bogus"]}
    for name, path in configs.items():
        for fmt in ("csv", "json"):
            runs[f"{name}-{fmt}"] = ["solve", "--config", path, "--format", fmt,
                                     "--out", f"{name}-{fmt}"]
    runs["verify"] = ["verify", "--config", configs["exp"]]
    reused_dir, fresh_dir = tmp_path / "reused", tmp_path / "fresh"
    reused_dir.mkdir()
    fresh_dir.mkdir()
    monkeypatch.chdir(reused_dir)
    # the fresh processes run in fresh_dir, so they import this same package by absolute path
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}

    stdout = {}
    for name, argv in runs.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "fredholm", *argv],
                               capture_output=True, text=True, cwd=fresh_dir, env=env)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), name
        assert code == (2 if name == "bad" else 0), name
        stdout[name] = out.getvalue()

    reused = {p.name: p.read_bytes() for p in sorted(reused_dir.iterdir())}
    assert len(reused) == 3 * len(routes)  # csv runs write .csv and .json, json runs .json
    assert reused == {p.name: p.read_bytes() for p in sorted(fresh_dir.iterdir())}
    for name in routes:
        assert reused[f"{name}-csv.json"] == stdout[f"{name}-csv"].encode()


# leaves 512 MB of address space above what the imports take
_MEMORY_LIMIT = ("import resource, numpy; "
                 "vm = next(int(line.split()[1]) for line in open('/proc/self/status') "
                 "if line.startswith('VmSize:')); "
                 "resource.setrlimit(resource.RLIMIT_AS, ((vm << 10) + (512 << 20),) * 2); ")
_linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                 reason="reads /proc/self/status and relies on RLIMIT_AS")


@_linux_only
def test_memory_exhaustion_is_one_json_error(tmp_path):
    # a discrete solve at the 2^22-cell ceiling needs more than the 512 MB of
    # address space left after the imports: it runs out of memory and must end
    # as one JSON error, not a traceback
    path = write_config(tmp_path / "c.json", gamma=0.5, horizon=2.0, method="discrete",
                        cells=cli.MAX_CELLS,
                        kernel={"type": "exponential_sum", "a": [1.0, 1.0], "b": [1.0, 4.0]})
    proc = run_module(path, prelude=_MEMORY_LIMIT)
    assert proc.returncode == 1
    assert proc.stdout == ""
    doc = strict_json(proc.stderr)
    assert doc["error"].startswith("out of memory")


@_linux_only
def test_steep_exponential_layers_fit_in_memory(tmp_path):
    # gamma 1e-8 at T 200 puts layers of rate 3.4e4 at both ends; equal panels
    # as short as those layers once needed 1.69 million of them, which ran out
    # of this memory, while graded panels need 42
    path = write_config(tmp_path / "c.json", gamma=1e-8, horizon=200.0, cells=1024,
                        kernel=_STEEP_EXP)
    proc = run_module(path, prelude=_MEMORY_LIMIT)
    assert proc.returncode == 0, proc.stderr
    assert strict_json(proc.stdout)["passed"] is True


# `ulimit -v 1000000`: 1000000 KiB of address space for the whole process, set before numpy loads
_ONE_GB = "import resource; resource.setrlimit(resource.RLIMIT_AS, ((1000000 << 10),) * 2); "
_TAB200_T = np.concatenate(([0.0], np.geomspace(0.01, 2.5, 199)))
_TAB200 = {"type": "tabulated", "t": _TAB200_T.tolist(),
           "g": (2.0 * np.exp(-1.3 * _TAB200_T) + 0.05 / (1.0 + _TAB200_T)).tolist()}
_COSINE_LADDER = dict(kernel=_TRIG_SPEC, gamma=1e-5, horizon=20.0, method="discrete")
_CAPPED_LADDER = dict(kernel={"type": "capped_linear", "cap": 1.0}, gamma=1e-8, horizon=1.0,
                      method="discrete")


@pytest.mark.parametrize("command, overrides, code, prelude", [
    pytest.param("solve", dict(kernel=_TAB200, gamma=0.01, horizon=3.0, method="discrete", cells=65536),
                 0, _ONE_GB, marks=_linux_only, id="tabulated-200-knots-65536-in-1-GB"),
    # each ladder config climbs to the preconditioner's second rung, the von Hann
    # embedding; the capped kernel at gamma 1e-8 takes the most steps measured
    # on it, 93 of 200 at 255 cells and 78 at 256
    pytest.param("solve", dict(_COSINE_LADDER, cells=256), 0, "", id="ladder-cosine-256"),
    pytest.param("solve", dict(_COSINE_LADDER, cells=4096), 0, "", id="ladder-cosine-4096"),
    pytest.param("solve", dict(_CAPPED_LADDER, cells=255), 0, "", id="ladder-capped-255"),
    pytest.param("solve", dict(_CAPPED_LADDER, cells=256), 0, "", id="ladder-capped-256"),
    pytest.param("solve", dict(_CAPPED_LADDER, cells=2048), 0, "", id="ladder-capped-2048"),
    pytest.param("solve", dict(kernel=_STEEP_EXP, gamma=1e-8, horizon=200.0, cells=1024),
                 0, _ONE_GB, marks=_linux_only, id="steep-exponential-in-1-GB"),
    pytest.param("solve", dict(kernel={"type": "capped_linear"}, gamma=2.1e-9, horizon=3.0, cells=1024),
                 0, _ONE_GB, marks=_linux_only, id="steep-capped-in-1-GB"),
    # auto picks each closed form, whose energy at T 1e-300 is sigma/2, not inf
    pytest.param("solve", dict(kernel=EXP2_SPEC, gamma=0.5, horizon=1e-300, cells=64), 0, "",
                 id="auto-exponential-T-1e-300"),
    pytest.param("solve", dict(kernel=_TRIG_SPEC, gamma=0.5, horizon=1e-300, cells=64), 0, "",
                 id="auto-trig-T-1e-300"),
    # 1/gamma overflows at gamma 5e-324: verify refuses it as solve does
    pytest.param("verify", dict(kernel=EXP2_SPEC, gamma=5e-324, horizon=2.0, cells=1024), 1, "",
                 id="verify-gamma-5e-324"),
])
def test_edge_config_ends_in_one_json_document(tmp_path, command, overrides, code, prelude):
    # in a fresh process, within 30 s, where any numpy warning reaches stderr
    path = write_config(tmp_path / "c.json", **overrides)
    assert_one_json_document(run_module(path, command=command, prelude=prelude), code)


def test_sweep_writes_the_same_bytes_in_two_fresh_processes(tmp_path):
    # the 4-knot table's sweep: one strict document of six entries, sigma falling with gamma
    path = write_config(tmp_path / "c.json", gamma=1.0, horizon=3.0, cells=512,
                        kernel={"type": "tabulated", "t": [0.0, 0.3, 1.0, 2.5], "g": [2.0, 1.1, 0.4, 0.05]})
    runs = [run_module(path, "--gammas", "1,0.3,0.1,0.03,0.01,0.003", "--out", str(tmp_path / f"{run}.json"),
                       command="sweep") for run in (1, 2)]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()
    sigma = [entry["sigma"] for entry in strict_json(runs[0].stdout)["entries"]]
    assert len(sigma) == 6 and all(a > b for a, b in zip(sigma, sigma[1:]))


_LIBRARY_EDGES = """
import json, math
from fredholm import diagnostics, discrete, exponential, special
from fredholm.kernels import ExponentialSum, PowerCapped, PowerLaw, Trigonometric
EXP2 = ExponentialSum((1.0, 1.0), (1.0, 4.0))
sol = special.capped_linear_solve(3, 0.1)
cf = exponential.build_closed_form(EXP2, 0.5, 2.0)
calls = {
    "horizon": lambda: exponential.verify_step_identities(EXP2, 0.5, 0.0),
    "cells": lambda: discrete.solve(discrete.Problem(0.5, 2.0, EXP2), 8.0),
    "lambda": lambda: exponential.secular_roots(EXP2, math.inf),
    "outside": lambda: special.eval_capped_linear(sol, math.nan),
    "lag": lambda: Trigonometric(0.5).evaluate(math.inf),
    "edge": lambda: Trigonometric(0.5).cell_double_integral(0.0, math.inf, 0.0, 1.0),
    "point": lambda: exponential.eval_closed_form(cf, "0.5"),
    "tol": lambda: diagnostics.analyze([1.0] * 64, 1.0, tol=math.nan),
    "value at this lag": lambda: Trigonometric(2.0).evaluate(1e308),
    "rectangle integral over these edges": lambda: PowerLaw(0.5).cell_double_integral(-1e308, 1e308, 0, 1),
    "cell integral over these edges": lambda: Trigonometric(2.0).cell_integral(0, 1, 1e308),
    "exponential lag 1e308": lambda: float(EXP2.evaluate(1e308)),
    "power-capped lag 1e308": lambda: float(PowerCapped(10.0, 4).evaluate(1e308)),
    "exponential rectangle 1e308": lambda: EXP2.cell_double_integral(-1e308, 1e308, 0, 1),
    "power-capped rectangle 1e308": lambda: PowerCapped(10.0, 4).cell_double_integral(-1e308, 1e308, 0, 1),
    "exponential cell 1e308": lambda: EXP2.cell_integral(-1e308, 1e308, 0.5),
    "power-capped cell 1e308": lambda: PowerCapped(10.0, 4).cell_integral(-1e308, 1e308, 0.5),
}
outcomes = {}
for name, call in calls.items():
    try:
        outcomes[name] = call()
    except Exception as exc:
        outcomes[name] = [type(exc).__name__, str(exc)]
print(json.dumps(outcomes, default=repr))
"""


def test_library_edges_under_warnings_as_errors():
    # in a fresh process under -W error, where a numpy warning is an error
    # that would come before the refusal or the value
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _LIBRARY_EDGES],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    outcomes = strict_json(proc.stdout)
    # a huge finite lag is past each kernel's support or decay: G is 0, and an integral
    # over huge finite edges is the kernel's whole integral, 2 sum a/sqrt(b) or 2/(rho (p + 1))
    assert outcomes.pop("exponential lag 1e308") == outcomes.pop("power-capped lag 1e308") == 0.0
    assert outcomes.pop("exponential rectangle 1e308") == outcomes.pop("exponential cell 1e308") == 3.0
    assert outcomes.pop("power-capped rectangle 1e308") == outcomes.pop("power-capped cell 1e308") == 0.04
    # every other call is refused by a ValueError that names its argument, point, lag or edge
    for name, outcome in outcomes.items():
        assert isinstance(outcome, list) and outcome[0] == "ValueError" and name in outcome[1], (
            name, outcome)


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path / "c.json", cells=64)
    proc = subprocess.run(
        [sys.executable, "-m", "fredholm", "solve", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
