"""The README's Library example runs as printed, so a removed or renamed
public name fails here instead of leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1 3 3 6 7 8]"
    assert lines[1].startswith("3 1.0366")
    assert lines[-2] == "True"
