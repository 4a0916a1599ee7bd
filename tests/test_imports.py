"""No module of the package imports a name it never uses.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delzant"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name.

    ``import a.b`` binds ``a``; ``a.b.c`` reads ``a``, so attribute use
    counts.  ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scanner_finds_an_unused_import():
    source = "import os.path\nimport re as regex\nfrom math import gcd, lcm\nprint(gcd, regex)\n"
    assert unused_imports(source) == ["lcm", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
