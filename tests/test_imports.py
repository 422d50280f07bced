"""The package imports each submodule the first time it is used."""

import importlib
import json
import subprocess
import sys

import pytest

import fredholm


def _loaded_after(code):
    """The modules loaded in a fresh interpreter after ``code``, and what ``code`` printed."""
    script = f"import sys\n{code}\nsys.stderr.write(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split()), proc.stdout


def test_package_and_cli_load_no_solver():
    loaded, _ = _loaded_after("import fredholm, fredholm.cli")
    assert not loaded & {"fredholm.discrete", "fredholm.exponential", "fredholm.special",
                         "fredholm.diagnostics", "numpy.polynomial"}
    assert {"fredholm._quad", "fredholm.cli", "fredholm.kernels"} <= loaded


def test_exponential_solve_loads_only_its_route(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kernel": {"type": "exponential_sum", "a": [1.0], "b": [1.0]},
                                "gamma": 1.0, "horizon": 1.0, "cells": 64}))
    loaded, out = _loaded_after(
        f"from fredholm import cli\nassert cli.main(['solve', '--config', {str(path)!r}]) == 0")
    assert json.loads(out)["method"] == "exp_closed_form"
    assert {"fredholm.exponential", "fredholm.diagnostics"} <= loaded
    assert not loaded & {"fredholm.discrete", "fredholm.special", "numpy.polynomial"}


@pytest.mark.parametrize("name", [n for n in fredholm.__all__ if n != "__version__"])
def test_every_public_name_is_its_submodules_object(name):
    value = getattr(fredholm, name)
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_covers_all_and_the_submodules():
    assert set(fredholm.__all__) <= set(dir(fredholm))
    assert {"cli", "discrete", "_quad"} <= set(dir(fredholm))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        fredholm.nope
    assert not hasattr(fredholm, "solver")
