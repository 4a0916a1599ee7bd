"""The README's library example runs as printed, and the export list holds."""

import ast
import contextlib
import io
import re
from pathlib import Path

import delzant

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_example_prints_what_it_says():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("(1/2)*l1^2 + l1*l2")
    assert lines[1:] == ["3", "3k"]


def test_exports_resolve_and_are_sorted():
    for name in delzant.__all__:
        assert getattr(delzant, name) is not None, name
    assert delzant.__all__ == sorted(delzant.__all__)


def test_exports_are_the_names_the_example_imports():
    # the package root exports what README documents, so the two move together
    (block,) = python_blocks(README.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "delzant"
        for alias in node.names
    ]
    assert delzant.__all__ == sorted(imported)
