"""The README's library example runs as written, under the suite's warning filters."""

from __future__ import annotations

import gc
import re


def test_readme_python_example_runs(repo_root):
    text = (repo_root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # An unclosed file warns only when it is collected; collect inside the test.
    gc.collect()
