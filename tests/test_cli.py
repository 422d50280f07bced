"""CLI behavior: config validation, artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm import cli


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


# ------------------------------------------------------------- config parsing

def test_unknown_fields_rejected(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", bogus=1)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert "unknown config fields" in doc["error"]
    assert doc["detail"]["fields"] == ["bogus"]


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
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, overrides):
    path = write_config(tmp_path / "c.json", **overrides)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 2, err
    assert json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, overrides",
    [
        (["solve"], {"horizon": math.inf}),
        (["solve"], {"gamma": math.inf}),
        (["solve"], {"gamma": math.nan}),
        (["solve"], {"diagnostics": {"tol": math.inf}}),
        (["sweep", "--gammas", "inf,1.0"], {}),
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


def test_indefinite_kernel_exits_1(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        kernel={"type": "tabulated", "t": [0.0, 0.4, 0.5, 0.6, 1.0],
                "g": [0.01, 0.2, 1.0, 0.2, 0.01]},
        gamma=1e-6,
        cells=32,
    )
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    doc = json.loads(err)
    assert "positive type" in doc["error"]
    assert doc["detail"]["pivot"] == 2


def test_trig_pole_exits_1(tmp_path, capsys):
    import math

    path = write_config(
        tmp_path / "c.json",
        kernel={"type": "trigonometric", "rho": 1.0},
        horizon=math.pi,
    )
    code, _, err = run_main(["solve", "--config", path], capsys)
    assert code == 1
    assert "singular" in json.loads(err)["error"]


@pytest.mark.parametrize("gamma", [1e-4, 1e-5])
def test_capped_boundary_layers_pass_every_check(tmp_path, capsys, gamma):
    # boundary layers exp(-b s) with b up to ~580 must be resolved by the
    # verification quadrature, or a correct closed form is reported as failed
    path = write_config(tmp_path / "c.json", kernel={"type": "capped_linear"},
                        gamma=gamma, horizon=3.0, cells=1024)
    code, out, err = run_main(["solve", "--config", path], capsys)
    assert code == 0, out + err
    summary = json.loads(out)
    assert summary["method"] == "capped_linear"
    assert all(summary["checks"].values()), summary["checks"]


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


_NUMBER = _mostly(st.floats(min_value=1e-3, max_value=20.0))
_KERNELS = st.one_of(
    st.integers(1, 3).flatmap(lambda k: st.fixed_dictionaries({
        "type": st.just("exponential_sum"),
        "a": st.lists(_NUMBER, min_size=k, max_size=k),
        "b": st.lists(_NUMBER, min_size=k, max_size=k, unique=True).map(sorted)})),
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
        "t": st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k, unique=True).map(sorted),
        "g": st.lists(_NUMBER, min_size=k, max_size=k).map(lambda g: sorted(g)[::-1])})),
)
_CONFIGS = st.fixed_dictionaries({
    "kernel": _KERNELS,
    "gamma": _mostly(st.floats(min_value=1e-5, max_value=10.0)),
    "horizon": _mostly(st.one_of(st.integers(1, 20).map(float), st.floats(0.05, 20.0))),
    "method": _mostly(st.just("auto"), st.sampled_from(cli._METHODS)),
    "cells": _mostly(st.integers(48, 256), st.integers(2, 47)),
})


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS, command=st.sampled_from(["solve", "verify"]))
def test_cli_never_crashes(config, command):
    # any config ends in a documented exit code with a JSON error, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert json.loads(err.getvalue())["error"]


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


def test_sweep_rejects_unsorted_gammas(tmp_path, capsys):
    path = write_config(tmp_path / "c.json")
    code, _, err = run_main(
        ["sweep", "--config", path, "--gammas", "0.1,0.5"], capsys
    )
    assert code == 2


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


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path / "c.json", cells=64)
    proc = subprocess.run(
        [sys.executable, "-m", "fredholm", "solve", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
