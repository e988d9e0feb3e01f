"""README's Library block runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert [a.verdict for a in namespace["audits"]] == ["pass"] * 5
    assert "('L0', 'pass')" in capsys.readouterr().out
