"""README's Python API example runs against the package's exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_prints_documented_sigma(capsys):
    text = README.read_text()
    api = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    documented = re.search(r"print\(cf\.sigma\)\s*# (\S+)", block).group(1)
    assert documented == "1.1654840327054725"
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == documented
