"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    """Source of the first ```python block under the README's ``## Python API`` heading."""
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match is not None, "no python block under ## Python API"
    return match.group(1)


def test_python_api_example_runs():
    source = python_api_block()
    assert "qrot.verify_potentials" in source
    exec(compile(source, f"{README}:Python API", "exec"), {})
