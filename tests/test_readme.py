"""The README's library example runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    hits = ast.literal_eval(capsys.readouterr().out)
    # Every entry, each an (id, distance) pair, nearest first.
    assert sorted(id for id, _ in hits) == [0, 1, 2, 3]
    assert [d for _, d in hits] == sorted(d for _, d in hits)
