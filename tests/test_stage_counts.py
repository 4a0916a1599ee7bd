"""How often each command builds each stage of the pipeline.

Every stage function is counted at every binding it has in the package
(a function imported by name has one binding per importing module), then
one CLI command runs.  A command builds each stage of its polytope once;
the per-facet boundary derivatives are built only by volume-poly, which
prints them; every face count of a dilate is read from its one
face-count table, with no per-face histogram scan; the brute comparison
values build their own histogram of each dilate, apart from the
kernel's, and the dilation check enumerates again, on purpose.  A
command-first line builds that command's parser alone, with its flags
only, on the command's first line in a process; later lines of the
command reuse it.
"""

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import delzant.cli as cli
import delzant.counting as counting
import delzant.operators as operators
import delzant.polynomial as polynomial
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
    ("delzant.volume", "boundary_volume_polynomial"),
    ("delzant.volume", "facet_derivatives"),
    ("delzant.operators", "apply_operator_product"),
    ("delzant.counting", "slab_plan"),
    ("delzant.counting", "tight_histogram"),
    ("delzant.counting", "face_counts"),
    ("delzant.counting", "count_points"),
    ("delzant.counting", "brute_histogram"),
    ("delzant.counting", "interpolate_counts"),
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
    # one kept histogram for each k = 1..5, plus the fresh passes of the 4
    # ``count_points`` calls below; one face-count table read by every face
    # count, with no per-face scan
    assert stage_calls["tight_histogram"] == 5 + 4
    assert stage_calls["face_counts"] == 5
    assert stage_calls["face scans"] == 0
    # every brute comparison value (2 operator counts, 5 inclusion-exclusion
    # dilates, route (c)'s two-sided node k = 1 and probe k = 2, and 5
    # interior counts of reciprocity) reads the oracle's one histogram per
    # k = 1..5
    assert stage_calls["brute_histogram"] == 5
    # the fibre kernel fits the full polynomial of the reciprocity check,
    # one direct pass at each k = 1..4 <= m + 2
    assert stage_calls["count_points"] == 4
    # one slab plan for the polytope's kept histograms, and one of its own
    # for each ``count_points`` pass
    assert stage_calls["slab_plan"] == 1 + 4
    # the one-sided fits of route (a) and of the reciprocity check
    assert stage_calls["interpolate_counts"] == 2


def test_hilbert_cy_fits_one_sided_for_route_a_alone(stage_calls, simplex_2, capsys):
    """The per-face table reads the two-sided fits, over the histograms and
    face-count tables that route (a) builds anyway."""
    assert main(["hilbert-cy", simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["interpolate_counts"] == 1
    # route (a): k = 1, 2 and the probe k = 3; each edge's fit reads k = 1
    # and the probe k = 2, each vertex's the probe k = 1
    assert stage_calls["tight_histogram"] == 3
    assert stage_calls["face_counts"] == 3
    assert stage_calls["face scans"] == 0
    # route (c): the node k = 1 and the probe k = 2
    assert stage_calls["brute_histogram"] == 2


@pytest.mark.parametrize(
    "argv, tables, scans",
    [
        # boundary degree 1: k = 1, 2 and the probe k = 3, shared by
        # inclusion-exclusion and every per-face fit
        (("hilbert-cy",), 3, 0),
        (("count", "--k", "2", "--output", "json"), 1, 0),
        (("count", "--k", "2", "--output", "json", "--region", "face=3"), 1, 0),
        # text output counts one region by ``count_points``: a fresh
        # histogram, scanned for the face, and no table
        (("count", "--k", "2", "--region", "face=3"), 0, 1),
        # above k = m + 2 the edge's fit reads the node k = 1 and the probe
        # k = 2, each pass scanned once
        (("count", "--k", "1000", "--region", "face=3"), 0, 2),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_face_counts_come_from_one_table_per_dilate(
    argv, tables, scans, stage_calls, simplex_2, capsys
):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    # each histogram is kept and feeds one table, or is scanned once
    assert stage_calls["tight_histogram"] == tables + scans
    assert stage_calls["face_counts"] == tables
    assert stage_calls["face scans"] == scans


@pytest.mark.parametrize(
    "kind, histograms",
    [
        # two-sided, degree 2 or 1: the nodes k = -1, 0, 1 read k = 1 (its
        # value at -1 by reciprocity), then the probe k = 2
        ("full", 2),
        ("interior", 2),
        ("boundary", 2),
    ],
)
def test_ehrhart_interpolation_reads_one_histogram_per_node(
    kind, histograms, stage_calls, simplex_2, capsys
):
    assert main(["ehrhart", "--kind", kind, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["tight_histogram"] == histograms
    # every node reads the kept histogram, with no fresh pass
    assert stage_calls["count_points"] == 0
    assert stage_calls["face_counts"] == 0


@pytest.mark.parametrize(
    "argv, kernel, oracle",
    [
        # route (a) and the per-face table fit one-sided, from k = 1, 2 and
        # the probe k = 3; route (c) two-sided, from the oracle's node k = 1
        # (its value at -1 by reciprocity) and the probe k = 2
        (("hilbert-cy",), 3, 2),
        # above k = m + 2 = 4, every region and face is read off a fit
        # through k = 1 and the probe k = 2, never a pass at k = 1000
        (("count", "--k", "1000"), 2, 0),
        (("count", "--k", "1000", "--region", "face=1"), 2, 0),
        (("count", "--k", "1000", "--output", "json"), 2, 0),
        # up to k = m + 2, one pass at k
        (("count", "--k", "4"), 1, 0),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_fits_read_few_dilates(argv, kernel, oracle, stage_calls, simplex_2, capsys):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["tight_histogram"] == kernel
    assert stage_calls["brute_histogram"] == oracle


@pytest.mark.parametrize(
    "argv, plans",
    [
        # the 2 histograms of the two-sided fit read one plan
        (("ehrhart", "--kind", "full"), 1),
        # text output: the plan of ``count_points``' own pass
        (("count", "--k", "2"), 1),
        (("count", "--k", "2", "--output", "json"), 1),
        (("hilbert-cy",), 1),
        (("validate",), 0),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_one_slab_plan_per_polytope(argv, plans, stage_calls, simplex_2, capsys):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["slab_plan"] == plans
    # no plan outlives its command: the same line again builds its own
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["slab_plan"] == 2 * plans


@pytest.mark.parametrize(
    "argv, boundaries, pieces",
    [
        # the per-facet derivatives are printed by volume-poly alone, in
        # every format, and built once for all facets
        (("volume-poly",), 1, 1),
        (("volume-poly", "--output", "json"), 1, 1),
        (("volume-poly", "--output", "tsv"), 1, 1),
        # the A-hat product and the facet-volume check read the summed
        # derivative only
        (("boundary-formula",), 1, 0),
        (("boundary-formula", "--output", "json"), 1, 0),
        (("cross-check",), 1, 0),
        (("khovanskii",), 0, 0),
    ],
    ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
)
def test_per_facet_derivatives_are_built_only_when_printed(
    argv, boundaries, pieces, stage_calls, simplex_2, capsys
):
    assert main([*argv, simplex_2]) == 0
    capsys.readouterr()
    assert stage_calls["boundary_volume_polynomial"] == boundaries
    assert stage_calls["facet_derivatives"] == pieces


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


@pytest.fixture
def cube_4(tmp_path):
    """The unit 4-cube: 80 proper faces."""
    lines = ["dim 4"]
    for i in range(4):
        normal = ["0"] * 4
        for sign, offset in (("-1", 0), ("1", 1)):
            normal[i] = sign
            lines.append(f"facet {' '.join(normal)} {offset}")
    path = tmp_path / "cube_4.poly"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_hilbert_cy_builds_no_fraction_for_its_per_face_table(monkeypatch, cube_4, capsys):
    """Each face's fit is handed to ``UniPoly`` as integers and printed off
    them: no Fraction is built while a fit becomes a ``UniPoly``
    (``IntegerFit.poly``) or a ``UniPoly`` is printed (``to_text``)."""
    built, scope = Counter(), []
    stored_new = Fraction.__dict__["__new__"]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[scope[-1] if scope else None] += 1
        return new(cls, *args, **kwargs)

    def scoped(name, method):
        def wrapper(*args, **kwargs):
            scope.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                scope.pop()

        return wrapper

    monkeypatch.setattr(counting.IntegerFit, "poly", scoped("poly", counting.IntegerFit.poly))
    monkeypatch.setattr(
        polynomial.UniPoly, "to_text", scoped("to_text", polynomial.UniPoly.to_text)
    )
    Fraction.__new__ = staticmethod(counted_new)
    try:
        assert main(["hilbert-cy", "--output", "json", cube_4]) == 0
        # the count is live: reading the coefficients builds them
        scoped("coeffs", lambda: polynomial.UniPoly.over([1, 3], 2).coeffs)()
    finally:
        Fraction.__new__ = stored_new
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_face"]) == 80
    assert built["poly"] == built["to_text"] == 0
    assert built["coeffs"] == 2


def test_bernoulli_numbers_are_built_once_per_order(cube_4, simplex_2, capsys):
    """Each order's B_0..B_order is built once per process, however many
    commands read it; the series built from them are not kept, so a test
    that replaces ``bernoulli_numbers`` or ``series_coefficients`` still
    reaches both operator routes."""
    cached = operators._bernoulli_numbers
    cached.cache_clear()
    # cross-check on the triangle: the Todd product and the vertex sum at
    # order 2, the A-hat product at order 1; hilbert-cy on the 4-cube:
    # the A-hat vertex sum at order 4
    for argv in (["cross-check", simplex_2], ["hilbert-cy", cube_4]):
        assert main(argv) == 0
    first = cached.cache_info()
    assert first.misses == first.currsize == 3
    for argv in (["cross-check", simplex_2], ["hilbert-cy", cube_4]):
        assert main(argv) == 0
    capsys.readouterr()
    second = cached.cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


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
