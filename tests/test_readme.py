"""README's Library block and CLI examples run as written, and `src/lojex`
holds no function or class that neither the pipeline nor that block uses."""

import ast
import json
import pathlib
import re
import shlex

import lojex

from .conftest import run_python

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(f"\n## {section}\n"):], re.S).group(1)


def test_readme_library_block_runs(capsys):
    namespace = {}
    exec(compile(_block("Library", "python"), str(README), "exec"), namespace)
    assert [a.verdict for a in namespace["audits"]] == ["pass"] * 5
    assert "('L0', 'pass')" in capsys.readouterr().out


def test_readme_cli_examples_run_without_test_extras(tmp_path):
    lines = [line for line in _block("CLI", "sh").splitlines() if line.startswith("lojex ")]
    examples = [shlex.split(line, comments=True)[1:] for line in lines]
    script = (
        "import json, os, sys\n"
        "sys.modules['scipy'] = sys.modules['sympy'] = None\n"  # their import now fails
        "from lojex.cli import main\n"
        "os.chdir(sys.argv[1])\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))\n"
    )
    proc = run_python("-c", script, str(tmp_path), json.dumps(examples))
    assert proc.returncode == 0, proc.stderr
    # the first nondegen example is degenerate and exits 2; the second's
    # germ begins with "-"
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 2, 0, 0]


def test_every_public_name_in_src_is_used():
    # each module-level function or class of src/lojex, private ones too but
    # not dunder names, is named by another statement of src/lojex outside
    # __init__.py, or by README's Library block: a helper that a deletion
    # leaves without a caller fails here
    def names(node) -> set[str]:
        return {
            getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "name", None)
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
        }

    library = names(ast.parse(_block("Library", "python")))
    statements = [
        (stmt, names(stmt))
        for path in sorted(pathlib.Path(lojex.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = [
        stmt.name for stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__")
        and stmt.name not in library
        and not any(stmt.name in used for other, used in statements if other is not stmt)
    ]
    assert unused == []
