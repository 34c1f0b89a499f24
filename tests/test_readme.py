"""README's examples run as printed: each command of its CLI block exits 0,
and the library quick start gives the values its comments state."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hannerfaces

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(hannerfaces.__file__).resolve().parents[1]


def _block(after: str, lang: str) -> str:
    """The first ``lang`` code block of README after the line ``after``."""
    text = README.read_text()
    start = text.index(f"\n{after}\n")
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    return match.group(1)


def _cli_commands() -> list[list[str]]:
    lines = _block("## CLI", "sh").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("hannerfaces ")]


def test_cli_block_holds_ten_commands():
    assert len(_cli_commands()) == 10


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_cli_example_exits_0(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "hannerfaces.cli", *argv], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_quick_start_gives_its_commented_values():
    source = _block("## Library quick start", "python")
    lines = source.splitlines()
    namespace: dict = {}
    results = []  # (value, comment) of each expression statement
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            results.append((value, lines[stmt.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    (fv_paper, c1), (fv_geo, c2), (coeff, c3), (match, c4), (slope, c5) = results
    assert (fv_paper, fv_geo, coeff, match) == ([8, 24, 34, 24, 8, 1], [8, 24, 32, 16, 1, 0], 34, True)
    for value, comment in ((fv_paper, c1), (fv_geo, c2), (coeff, c3), (match, c4)):
        assert comment.startswith(repr(value))
    checked = namespace["tree_sum_check"](namespace["a"], Q=2, m=2, kmax=16)
    assert "20-tree" in c4 and checked.n_trees == 20
    assert c5.startswith("~0.755") and abs(slope - 0.755) <= 0.01
