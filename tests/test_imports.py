"""No module of the package imports a name it never uses, no module on the
eager path runs a lazily loaded one at import, and each route stays
independent of the one it checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delzant

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delzant"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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


def runs_at_import(tree: ast.Module):
    """The nodes of ``tree`` that run when the module is imported: all but
    function and lambda bodies and, under ``from __future__ import
    annotations``, annotations.  A function's decorators and default
    values run, and so does a class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += getattr(node, "decorator_list", [])
            todo += [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        elif isinstance(node, ast.AnnAssign):
            todo += [node.target, *filter(None, [node.value])]
        else:
            todo += ast.iter_child_nodes(node)


def lazy_reads_at_import(source, lazy=delzant.LAZY_MODULES, exports=delzant.__all__) -> list[str]:
    """What runs a lazy module of the package when ``source`` is imported.

    ``from .counting import x`` runs ``counting`` (the import statement
    reads the module), and so does ``counting.x`` in code that runs at
    import.  ``import delzant.counting as c`` runs it too, so any absolute
    import of a lazy module counts; ``from . import counting`` binds the
    module and runs nothing.  A name the package re-exports (``from .
    import operator_count``) runs the module it comes from.
    """
    found = []
    for node in runs_at_import(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # absolute: from delzant[.module] import ...
                head, _, rest = module.partition(".")
                module = rest if head == "delzant" else None
            if module in lazy:
                found.append(f"line {node.lineno}: from {module} import")
            elif module == "":
                names = [alias.name for alias in node.names if alias.name in exports]
                found += [f"line {node.lineno}: import of {name}" for name in names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "delzant" and rest.split(".")[0] in lazy:
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in lazy:
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_scanner_finds_a_lazy_module_run_at_import():
    bad = (
        "from .counting import count_points\n"
        "import delzant.volume\n"
        "from delzant.hilbert import cross_check\n"
        "from . import operator_count\n"
        "class P:\n    budget: int = counting.DEFAULT_BUDGET\n"
        "def f(x=operators.apply_operator_product):\n    pass\n"
    )
    assert sorted(lazy_reads_at_import(bad)) == [
        "line 1: from counting import",
        "line 2: import delzant.volume",
        "line 3: from hilbert import",
        "line 4: import of operator_count",
        "line 6: counting.DEFAULT_BUDGET",
        "line 7: operators.apply_operator_product",
    ]
    good = (
        "from __future__ import annotations\n"
        "from . import counting, polytope\n"
        "from .errors import DEFAULT_BUDGET\n"
        "import delzant.polytope\n"
        "class P:\n    plan: counting.SlabPlan\n"
        "    def slab_plan(self) -> counting.SlabPlan:\n        return counting.slab_plan(self)\n"
        "run = lambda prep: counting.count_points(prep)\n"
    )
    assert lazy_reads_at_import(good) == []


EAGER_MODULES = sorted(set(MODULES) - {f"{name}.py" for name in delzant.LAZY_MODULES})


def test_the_cli_path_is_eager():
    cli_path = {"cli.py", "prepared.py", "polyfile.py", "polytope.py", "linalg.py", "errors.py"}
    assert cli_path <= set(EAGER_MODULES)


@pytest.mark.parametrize("module", EAGER_MODULES)
def test_eager_module_runs_no_lazy_module_at_import(module):
    # such an import would run the lazy module in every process that
    # imports this one, and undo the package's lazy loading unnoticed
    assert lazy_reads_at_import((PACKAGE / module).read_text(encoding="utf-8")) == []


EXPORTS_CHECK = """
import delzant
listed = set(dir(delzant))
for name in delzant.__all__:
    getattr(delzant, name)
try:
    delzant.no_such_name
except AttributeError as exc:
    print(exc)
print(sorted(set(delzant.__all__) - listed))
"""


def test_every_export_is_listed_and_resolves():
    # in a fresh interpreter, so dir() is read before any name has resolved
    env = dict(os.environ)
    paths = (str(PACKAGE.parent), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", EXPORTS_CHECK], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "module 'delzant' has no attribute 'no_such_name'\n[]\n"


ORACLE_BORROWINGS = ("linalg", "feasible_vertex_points")


def oracle_borrowings(source: str, forbidden=ORACLE_BORROWINGS) -> list[str]:
    """Code a module takes from the route it is checked against.

    By default, the solver code the volume module takes from the vertex
    enumeration: an import from ``.linalg`` (or of ``linalg`` itself), and
    any import, name or attribute ``feasible_vertex_points``.  The oracle
    solves its own vertex systems, so it stays independent of the charts
    it checks.  Any word of ``forbidden`` matches a module imported from,
    or a name imported, read or taken as an attribute.
    """
    words = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            words.add((node.module or "").split(".")[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            words.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
    return sorted(words & set(forbidden))


def test_scanner_finds_a_borrowed_solver():
    assert oracle_borrowings("from .linalg import int_solve\n") == ["linalg"]
    assert oracle_borrowings("from . import linalg\n") == ["linalg"]
    assert oracle_borrowings("import delzant.linalg as la\n") == ["linalg"]
    assert oracle_borrowings("from .polytope import feasible_vertex_points\n") == [
        "feasible_vertex_points"
    ]
    source = "from . import polytope\npolytope.feasible_vertex_points(n, o)\n"
    assert oracle_borrowings(source) == ["feasible_vertex_points"]
    assert oracle_borrowings("from .polytope import build_face_lattice\n") == []


def test_volume_oracle_borrows_no_solver():
    assert oracle_borrowings((PACKAGE / "volume.py").read_text(encoding="utf-8")) == []


WALK = ("enumerate_vertices", "_edge_walk", "_first_basis", "_phase_one", "_vertex", "_ratio_test")


def test_subset_reference_borrows_none_of_the_walk():
    # the tests compare the edge walk with the subset path, so the path
    # must not call the walk or its phase 1, solve or ratio test
    functions = {
        node.name
        for node in ast.parse((PACKAGE / "polytope.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    assert set(WALK) <= functions
    source = (Path(__file__).parent / "subset_reference.py").read_text(encoding="utf-8")
    assert oracle_borrowings(source, WALK) == []
    assert oracle_borrowings("from delzant.polytope import _vertex\n", WALK) == ["_vertex"]


COUNTER_BORROWINGS = (
    "counting",
    "hilbert",
    "count_points",
    "brute_histogram",
    "tight_histogram",
    "read_count",
    "interpolate_counts",
)


def test_operator_route_borrows_no_counter():
    # the operator formulas are checked against the counters, so they
    # must not import from them or call them
    assert oracle_borrowings("from .counting import UniPoly\n", COUNTER_BORROWINGS) == [
        "counting"
    ]
    source = (PACKAGE / "operators.py").read_text(encoding="utf-8")
    assert oracle_borrowings(source, COUNTER_BORROWINGS) == []


FIBRE_KERNEL = "_interval_masks"


def call_tree_names(source: str, root: str) -> set[str]:
    """Every name and attribute read by ``root`` and the module functions it reaches.

    Starting at the module-level function ``root``, each module-level
    function it names is followed in turn, so a helper that names the
    kernel is found however deep it sits.
    """
    functions = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    names, todo, seen = set(), [root], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(names - seen)
    return names


def test_call_tree_scanner_follows_helpers():
    source = (
        "def oracle(x):\n    return helper(x)\n"
        "def helper(x):\n    return mod._interval_masks(x)\n"
        "def other(x):\n    return _interval_masks(x)\n"
    )
    assert FIBRE_KERNEL in call_tree_names(source, "oracle")
    assert FIBRE_KERNEL not in call_tree_names(source.replace("mod.", "mod.x"), "oracle")


# the slab kernel's own helpers, and the rank test that decides which
# levels of its prefix walk store their sub-boxes
SLAB_HELPERS = ("_floor_sum", "_congruent_rows", "_lowest_line", "_settled_bits", "kernel_vector")


def test_brute_count_never_reaches_the_fibre_kernel():
    # brute_histogram builds the oracle's histograms, which Prepared keeps
    # and every brute count reads
    source = (PACKAGE / "counting.py").read_text(encoding="utf-8")
    counted = call_tree_names(source, "count_points")
    functions = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    brute = call_tree_names(source, "brute_histogram")
    for name in (FIBRE_KERNEL, *SLAB_HELPERS):
        assert name in counted, name
        assert name not in brute, name
    assert "_tight_masks" in brute
    # nor any other module function the kernel reaches
    assert call_tree_names(source, FIBRE_KERNEL) & functions & brute == set()


# what the slab kernel's plan holds and how it is built and walked: its
# split into product factors, their level tables and the per-factor walk
SLAB_PLAN = ("slab_plan", "SlabPlan", "_slab_tables", "_factors", "_factor_masks")


def test_the_oracle_reads_no_slab_plan():
    # the per-point classifier keeps the input's coordinate order, so the
    # kernel's plan is checked by code that shares none of it
    source = (PACKAGE / "counting.py").read_text(encoding="utf-8")
    counted = call_tree_names(source, "count_points")
    for root in ("brute_histogram", "_tight_masks"):
        reached = call_tree_names(source, root)
        for name in SLAB_PLAN:
            assert name in counted, name
            assert name not in reached, (root, name)


def callers(root: Path, name: str) -> set[tuple[str, str]]:
    """(module, function) for every function under ``root`` that names
    ``name`` in its own body, not in a function nested in it."""
    found = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            todo = list(node.body)
            while todo:
                child = todo.pop()
                if isinstance(child, ast.FunctionDef):
                    continue
                if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                    found.add((path.stem, node.name))
                todo.extend(ast.iter_child_nodes(child))
    return found


def test_tight_histogram_is_the_one_door_to_the_slab_kernel():
    assert callers(PACKAGE, FIBRE_KERNEL) == {("counting", "tight_histogram")}
    # a fresh pass per call for the one-region counts of ``count`` and the
    # reciprocity fit; everything else reads ``Prepared.histogram``
    assert callers(PACKAGE, "count_points") == {
        ("cli", "cmd_count"),
        ("hilbert", "check_reciprocity"),
    }
    # a plan is built for the passes of one ``count_points`` call, or kept
    # by a ``Prepared`` for all of its dilates and read by its
    # ``histogram``, and named nowhere else: the kernel's door is handed one
    assert callers(PACKAGE, "slab_plan") == {
        ("counting", "count_points"),
        ("prepared", "slab_plan"),
        ("prepared", "histogram"),
    }


TESTS = Path(__file__).resolve().parent


def test_no_test_module_imports_another():
    # shared helpers live in modules that collect no tests, such as ``generators``
    borrowed = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
                borrowed.append((path.name, node.module))
            elif isinstance(node, ast.Import):
                borrowed += [(path.name, a.name) for a in node.names if a.name.startswith("test_")]
    assert borrowed == []
