"""README's examples run against the package: the Python API block and the config schema."""

import json
import re
from pathlib import Path

from fredholm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_prints_documented_sigma(capsys):
    text = README.read_text()
    api = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    documented = re.search(r"print\(cf\.sigma\)\s*# (\S+)", block).group(1)
    assert documented == "1.1654840327054725"
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == documented


def test_readme_config_schema_shows_every_accepted_field(tmp_path):
    # the schema block is a valid config, and it shows exactly the fields that
    # parse_config's object check accepts, at the top level and in each object
    text = README.read_text()
    schema = text[text.index("### Config schema"):]
    block = re.search(r"```json\n(.*?)```", schema, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(block)
    cli.parse_config(str(path))
    doc = json.loads(block)
    shown = {"config": doc, "diagnostics": doc["diagnostics"], "output": doc["output"]}
    assert {name: set(fields) for name, fields in shown.items()} == {
        name: set(fields) for name, fields in cli._OBJECTS.items()}
