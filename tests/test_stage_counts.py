"""How often each command builds each stage of the pipeline.

Every stage function is counted at every binding it has in the package
(a function imported by name has one binding per importing module), then
one CLI command runs.  A command builds each stage of its polytope once;
every face count of a dilate is read from its one face-count table, with
no per-face histogram scan; the brute comparison values build their own
histogram of each dilate, apart from the kernel's, and the dilation check
enumerates again, on purpose.  A command-first line builds that
command's parser alone, with its flags only, on the command's first line
in a process; later lines of the command reuse it.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import pytest

import delzant.cli as cli
import delzant.counting as counting
import delzant.polytope as polytope
import delzant.volume as volume
from delzant.cli import main
from delzant.corpus import corpus_text, load
from delzant.errors import UnboundedError
from delzant.polyfile import parse_polytope_file

STAGES = (
    ("delzant.polytope", "enumerate_vertices"),
    ("delzant.polytope", "validate_delzant"),
    ("delzant.polytope", "build_face_lattice"),
    ("delzant.volume", "volume_polynomial"),
    ("delzant.operators", "apply_operator_product"),
    ("delzant.counting", "tight_histogram"),
    ("delzant.counting", "face_counts"),
    ("delzant.counting", "count_points"),
    ("delzant.counting", "brute_histogram"),
)


def _rebind(monkeypatch, original, replacement):
    """Point every binding of ``original`` in the package at ``replacement``."""
    for other_name, module in list(sys.modules.items()):
        if other_name == "delzant" or other_name.startswith("delzant."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of each stage, and under "face scans" the ``read_count`` calls
    that scan a histogram for one face."""
    calls = Counter()
    for module_name, name in STAGES:
        original = getattr(sys.modules[module_name], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)

    read_count = counting.read_count

    def counted_read(histogram, region="full", face=None):
        calls["face scans"] += region == "face"
        return read_count(histogram, region, face)

    _rebind(monkeypatch, read_count, counted_read)
    return calls


@pytest.fixture
def simplex_2(tmp_path):
    path = tmp_path / "simplex_2.poly"
    path.write_text(corpus_text("simplex_2"), encoding="utf-8")
    return str(path)


def test_cross_check_builds_each_stage_once(stage_calls, simplex_2, capsys):
    assert main(["cross-check", simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["volume_polynomial"] == 1
    # the Todd product once, the A-hat product once
    assert stage_calls["apply_operator_product"] == 2
    assert stage_calls["validate_delzant"] == 1
    # one lattice, read by the Delzant-checked stages and by the oracle's
    # triangulation, which needs no Delzant check
    assert stage_calls["build_face_lattice"] == 1
    # the polytope's own charts, plus the dilates k = 1, 2, 3 of the dilation check
    assert stage_calls["enumerate_vertices"] == 4
    # one histogram for each k = 1..5, and one face-count table read by
    # every face count, with no per-face scan
    assert stage_calls["tight_histogram"] == 5
    assert stage_calls["face_counts"] == 5
    assert stage_calls["face scans"] == 0
    # every brute comparison value (2 operator counts, 5 inclusion-exclusion
    # dilates, route (c)'s nodes k = 1, 2 and probe k = 3, and 5 interior
    # counts of reciprocity) reads the oracle's one histogram per k = 1..5
    assert stage_calls["brute_histogram"] == 5
    # the fibre kernel fits the full polynomial of the reciprocity check
    assert stage_calls["count_points"] == 4


@pytest.mark.parametrize(
    "argv, tables, scans",
    [
        # boundary degree 1: k = 1, 2 and the probe k = 3, shared by
        # inclusion-exclusion and every per-face fit
        (("hilbert-cy",), 3, 0),
        (("count", "--k", "2", "--output", "json"), 1, 0),
        (("count", "--k", "2", "--output", "json", "--region", "face=3"), 1, 0),
        # text output counts one region by ``count_points``, which scans
        (("count", "--k", "2", "--region", "face=3"), 0, 1),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_face_counts_come_from_one_table_per_dilate(
    argv, tables, scans, stage_calls, simplex_2, capsys
):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["tight_histogram"] == tables
    assert stage_calls["face_counts"] == tables
    assert stage_calls["face scans"] == scans


@pytest.mark.parametrize(
    "argv, lattices, products",
    [
        # route (b) sums one series per vertex; route (a) reads the lattice
        (("hilbert-cy",), 1, 0),
        # the Ehrhart polynomial reads only the Delzant-checked charts
        (("ehrhart", "--method", "operator"), 0, 0),
        (("ehrhart", "--method", "operator", "--kind", "boundary", "--output", "tsv"), 0, 0),
        # JSON prints operator_applied, so it expands the product once
        (("ehrhart", "--method", "operator", "--output", "json"), 1, 1),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_ehrhart_polynomials_expand_no_operator_product(
    argv, lattices, products, stage_calls, simplex_2, capsys
):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["build_face_lattice"] == lattices
    assert stage_calls["volume_polynomial"] == products
    assert stage_calls["apply_operator_product"] == products


def test_cross_check_oracle_never_enumerates_the_anchor(monkeypatch, simplex_2, capsys):
    """The oracle solves only the anchor's vertices, never at the anchor's offsets."""
    offsets, solved, proving = [], Counter(), [False]
    prove, solve = volume._anchor_vertices, volume._solve

    def recorded(normals, actives, sample):
        offsets.append(tuple(sample))
        proving[0] = True
        try:
            return prove(normals, actives, sample)
        finally:
            proving[0] = False

    def counted(rows, rhs):
        # the simplex determinants solve too; count only the vertex solves
        if proving[0]:
            solved[tuple(map(tuple, rows))] += 1
        return solve(rows, rhs)

    monkeypatch.setattr(volume, "_anchor_vertices", recorded)
    monkeypatch.setattr(volume, "_solve", counted)
    assert main(["cross-check", simplex_2]) == 0
    capsys.readouterr()
    # the C(3 + 2, 2) = 10 samples q anchor + alpha once each, plus the 3
    # corners q anchor + 2 e_i that fix q = 2
    assert len(offsets) == 10 + 3
    # one solve for each of the 3 anchor vertices at each of them
    assert len(solved) == 3
    assert all(count == 10 + 3 for count in solved.values())
    # the sweep starts from 2 anchor = (0, 0, 2) and never visits (0, 0, 1)
    assert (0, 0, 1) not in offsets
    assert offsets.count((0, 0, 2)) == 1


@pytest.fixture
def linalg_calls(monkeypatch):
    """The int_solve widths, greedy bases and rank tests of polytope."""
    calls = {"int_solve": [], "independent_rows": 0, "kernel_vector": 0}
    solve, basis, rank = polytope.int_solve, polytope.independent_rows, polytope.kernel_vector

    def counted_solve(rows, cols):
        calls["int_solve"].append(len(cols[0]))
        return solve(rows, cols)

    def counted_basis(rows, count):
        calls["independent_rows"] += 1
        return basis(rows, count)

    def counted_rank(rows):
        calls["kernel_vector"] += 1
        return rank(rows)

    monkeypatch.setattr(polytope, "int_solve", counted_solve)
    monkeypatch.setattr(polytope, "independent_rows", counted_basis)
    monkeypatch.setattr(polytope, "kernel_vector", counted_rank)
    return calls


def test_enumerate_vertices_solves_only_the_start(linalg_calls):
    """One integer solve for the start vertex; every other chart is pivoted."""
    charts = polytope.enumerate_vertices(load("cube_unit"))
    assert len(charts) == 8
    # one greedy elimination finds the first basis (0, 2, 4), skipping the
    # parallel facets 1 and 3, and shows the normals have full rank, so no
    # kernel vector is sought
    assert linalg_calls["independent_rows"] == 1
    assert linalg_calls["kernel_vector"] == 0
    # the first basis's point (0, 0, 0) is the first vertex, solved against
    # the identity; the other 7 charts are pivoted from their neighbours'
    assert linalg_calls["int_solve"] == [3]


def test_enumerate_vertices_scale_guard(linalg_calls):
    """On a 5-cube with 12 blow-ups (d = 22, C(22, 5) = 26,334 facet subsets),
    the solves are the first basis's and phase 1's."""
    path = Path(__file__).parent / "data" / "cube5_blowup12.poly"
    charts = polytope.enumerate_vertices(parse_polytope_file(path.read_text()))
    assert len(charts) == 80
    # the first basis (0, 2, 4, 6, 8) meets at the corner (0, 0, 0, 0, 0),
    # which was cut off; phase 1 solves its start and makes one pivot in
    # dimension 5 + 1, to the vertex (0, 0, 0, 0, 40), whose lifted solve
    # is also its chart's; the other 79 charts are pivoted
    assert linalg_calls["int_solve"] == [5] + [6] * 2
    assert linalg_calls["kernel_vector"] == 0


def test_enumerate_vertices_solves_phase_one_only_on_the_d40_fixture(linalg_calls):
    """d = 40 in dim 6: the first basis, then 8 active sets of phase 1."""
    path = Path(__file__).parent / "data" / "gon16_gon12_gon12.poly"
    charts = polytope.enumerate_vertices(parse_polytope_file(path.read_text()))
    assert len(charts) == 2304
    assert linalg_calls["int_solve"] == [6] + [7] * 8
    assert linalg_calls["kernel_vector"] == 0


def test_rank_deficient_normals_name_one_kernel_vector(linalg_calls):
    """The kernel vector is sought only to name the ray of an UnboundedError."""
    spec = polytope.HalfSpaceSpec(2, [((1, 0), 1), ((-1, 0), 1), ((1, 0), 2)])
    with pytest.raises(UnboundedError):
        polytope.enumerate_vertices(spec)
    assert linalg_calls["kernel_vector"] == 1
    assert linalg_calls["int_solve"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("validate",),
        ("faces",),
        ("volume-poly",),
        ("count", "--k", "2", "--region", "face=1"),
        ("count", "--k", "2", "--output", "json"),
        ("ehrhart", "--kind", "boundary"),
        ("ehrhart", "--method", "operator"),
        ("khovanskii",),
        ("boundary-formula",),
        ("hilbert-cy",),
    ],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_every_other_command_enumerates_vertices_once(argv, stage_calls, simplex_2, capsys):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["enumerate_vertices"] == 1


@pytest.fixture
def ratio_tests(monkeypatch):
    """The number of ``_ratio_test`` calls polytope makes."""
    calls = [0]
    ratio_test = polytope._ratio_test

    def counted(*args):
        calls[0] += 1
        return ratio_test(*args)

    monkeypatch.setattr(polytope, "_ratio_test", counted)
    return calls


@pytest.mark.parametrize(
    "spec, vertices, tests",
    [
        # the first basis is feasible: no phase 1, and one test per edge
        (load("cube_unit"), 8, 12),
        # d = 40 in dim 6: 2,304 vertices x 6 edge ends / 2 = 6,912 edges,
        # plus the 7 pivots of phase 1
        (
            parse_polytope_file((Path(__file__).parent / "data" / "gon16_gon12_gon12.poly").read_text()),
            2304,
            6912 + 7,
        ),
    ],
    ids=["cube_unit", "gon16_gon12_gon12"],
)
def test_edge_walk_ratio_tests_each_edge_once(ratio_tests, spec, vertices, tests):
    """An edge is tested from the end the walk reaches first; the test
    that finds its far end marks it there."""
    assert len(polytope.enumerate_vertices(spec)) == vertices
    assert ratio_tests[0] == tests


@pytest.fixture
def added_arguments(monkeypatch):
    """The names of every argument added to any argparse parser, from an
    empty command-parser cache."""
    cli._command_parser.cache_clear()
    names = []
    original = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        names.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    return names


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of every argparse parser built, subparsers included, from
    an empty command-parser cache."""
    cli._command_parser.cache_clear()
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_main_builds_the_running_commands_parser_only(built_parsers, simplex_2, capsys):
    assert main(["count", "--k", "2", simplex_2]) == 0
    assert capsys.readouterr().out == "6\n"
    assert built_parsers == ["delzant count"]
    # a later line of the same command reuses its parser
    assert main(["count", "--k", "3", simplex_2]) == 0
    assert capsys.readouterr().out == "10\n"
    assert built_parsers == ["delzant count"]
    # another command builds its own parser alone
    assert main(["validate", simplex_2]) == 0
    capsys.readouterr()
    assert built_parsers == ["delzant count", "delzant validate"]


def test_top_level_help_builds_every_subparser(built_parsers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "cross-check" in capsys.readouterr().out
    # the root parser and all nine subcommands
    assert len(built_parsers) == 10


@pytest.mark.parametrize(
    "argv,flags",
    [
        # -h, file, --output, --normalize, --budget
        (("validate",), 5),
        # and --k, --region
        (("count", "--k", "2"), 7),
        # and --kind, --method
        (("ehrhart", "--kind", "boundary"), 7),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,
)
def test_main_builds_only_the_running_commands_flags(
    argv, flags, added_arguments, simplex_2, capsys
):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    # the running command's flags only: no top level, so no --version
    assert len(added_arguments) == flags
