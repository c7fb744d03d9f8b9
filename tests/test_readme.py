"""The README's library quick start runs as written, so the documented API
cannot drift from the code."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
