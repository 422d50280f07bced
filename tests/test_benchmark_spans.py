"""The traced benchmark run can bind every span it declares.

``perfbench/spans.py`` wraps functions of ``fredholm`` by owner and attribute
name, and the traced run fails when a per-layer metric named in
``BENCHMARK.json`` is missing.  Renaming or deleting a wrapped function would
only show there; these tests show it in the unit suite.
"""

import importlib.util
import json
from pathlib import Path

import fredholm
import fredholm.cli  # the benchmark worker imports it as well

ROOT = Path(__file__).resolve().parent.parent


def _targets():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.targets(fredholm)


def test_every_span_target_is_an_attribute_of_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _targets() if attr not in vars(owner)]
    assert not missing


def test_span_targets_cover_every_per_layer_metric():
    # the traced worker reports <name>.calls and <name>.self_s for each target
    # name, and these counters besides
    names = {name for _, _, name, _ in _targets()}
    reported = {f"{name}.{kind}" for name in names for kind in ("calls", "self_s")}
    reported |= {"discrete.cells", "cli.output_bytes", "setup.import_s", "trace.overhead_pct"}
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert per_layer <= reported, sorted(per_layer - reported)
