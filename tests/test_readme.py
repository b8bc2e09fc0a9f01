"""The README's Python examples, run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run(capsys):
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```$", f.read(),
                            re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    # The first block prints three report fields, then (m, |U|, q_UT) per
    # sample row: integers only.
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 1
    for line in lines:
        assert re.fullmatch(r"-?\d+( -?\d+)*", line), line
