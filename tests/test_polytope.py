import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delzant.polytope as polytope
from delzant.corpus import DELZANT_CORPUS, corpus_names, load
from delzant.errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
)
from delzant.linalg import ring_det
from delzant.polyfile import parse_polytope_file
from delzant.polytope import (
    HalfSpaceSpec,
    build_face_lattice,
    enumerate_vertices,
    validate_delzant,
)
from delzant.prepared import Prepared
from delzant.volume import chamber_samples
# bound as _blow_up: derandomized Hypothesis seeds each test from its source
# text, so renaming the calls would change the examples drawn
from generators import blow_up as _blow_up, product_spec
from subset_reference import feasible_vertex_points, independent_subsets, subset_charts


DATA = Path(__file__).parent / "data"


def anchors(charts):
    return sorted(c.anchor_ints() for c in charts)


def walk(spec):
    return polytope._edge_walk(spec.normals(), spec.offsets())


def walk_raises(spec, error):
    """The walk itself raises ``error``: its type and its message."""
    with pytest.raises(type(error)) as caught:
        walk(spec)
    assert str(caught.value) == str(error)


class TestSpecConstruction:
    def test_too_few_facets(self):
        with pytest.raises(ValueError):
            HalfSpaceSpec(2, [((1, 0), 1), ((0, 1), 1)])

    def test_non_primitive_normal(self):
        with pytest.raises(ValueError):
            HalfSpaceSpec(2, [((2, 2), 2), ((0, -1), 0), ((-1, 0), 0)])

    def test_zero_normal(self):
        with pytest.raises(ValueError):
            HalfSpaceSpec(2, [((0, 0), 1), ((0, -1), 0), ((-1, 0), 0)])

    def test_wrong_normal_length(self):
        with pytest.raises(ValueError):
            HalfSpaceSpec(2, [((1, 0, 0), 1), ((0, -1), 0), ((-1, 0), 0)])


class TestEnumerateVertices:
    def test_unit_simplex(self):
        charts = enumerate_vertices(load("simplex_2"))
        assert anchors(charts) == [(0, 0), (0, 1), (1, 0)]

    def test_unit_square(self):
        charts = enumerate_vertices(load("square_unit"))
        assert len(charts) == 4
        assert anchors(charts) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    # Each degenerate family pins the exact error, which the walk itself raises.

    def test_pyramid_is_not_simple(self):
        # the first basis of facets meets at the apex, on 4 facets
        spec = load("pyramid_nonsimple")
        assert polytope._first_basis(spec.normals()) == (0, 1, 2)
        with pytest.raises(NonSimpleError) as err:
            enumerate_vertices(spec)
        walk_raises(spec, err.value)
        assert err.value.point == (0, 0, 1)
        assert err.value.facets == (1, 2, 3, 4)
        assert str(err.value) == (
            "vertex (0, 0, 1) lies on 4 facets [1, 2, 3, 4]; polytope is not simple"
        )

    def test_pyramid_apex_met_mid_walk(self):
        # base first: the walk starts at the simple vertex (1, 1, 0), and
        # the edge up to the apex is blocked by two side facets at once
        spec = HalfSpaceSpec(
            3,
            [((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1), ((0, -1, 1), 1)],
        )
        assert polytope._first_basis(spec.normals()) == (0, 1, 3)
        with pytest.raises(NonSimpleError) as err:
            enumerate_vertices(spec)
        walk_raises(spec, err.value)
        assert err.value.point == (0, 0, 1)
        assert str(err.value) == (
            "vertex (0, 0, 1) lies on 4 facets [2, 3, 4, 5]; polytope is not simple"
        )

    def test_unbounded_strip(self):
        # full rank, so the walk runs and meets the edge down from (0, 1)
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((1, 0), 1), ((0, 1), 1)])
        with pytest.raises(UnboundedError) as err:
            enumerate_vertices(spec)
        walk_raises(spec, err.value)
        assert err.value.ray == (0, -1)
        assert str(err.value) == "polytope is unbounded along (0, -1)"

    def test_unbounded_by_lineality(self):
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((1, 0), 2), ((1, 0), 1)])
        with pytest.raises(UnboundedError) as err:
            enumerate_vertices(spec)
        walk_raises(spec, err.value)
        assert err.value.ray == (0, 1)

    def test_empty(self):
        # the origin of the first basis violates x + y <= -1; phase 1
        # ends with a positive minimum
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), -1)])
        with pytest.raises(EmptyPolytopeError) as err:
            enumerate_vertices(spec)
        walk_raises(spec, err.value)
        assert str(err.value) == "the half-space intersection is empty"

    def test_redundant_facet(self):
        # the walk succeeds; redundancy is read from its charts
        spec = HalfSpaceSpec(
            2,
            [((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1), ((1, 1), 5)],
        )
        assert anchors(walk(spec)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        with pytest.raises(RedundantFacetError) as err:
            enumerate_vertices(spec)
        assert err.value.facets == (5,)
        assert str(err.value) == "facets [5] carry no vertex (redundant inequality)"

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_simplicity_and_integrality(self, name, prepare):
        p = prepare(name)
        for chart in p.charts:
            assert len(chart.active_set) == p.spec.dim
            chart.anchor_ints()  # raises if not integral

    def test_anchor_ints_is_built_once_and_raises_on_every_read(self):
        # the vertex on facets 2 and 3 is (1/2, 0)
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)])
        origin, half = [c for c in walk(spec) if c.active_set in ((0, 1), (1, 2))]
        assert origin.anchor_ints() is origin.anchor_ints() == (0, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="is not a lattice point"):
                half.anchor_ints()

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_symbolic_vertex_matches_anchor(self, name, prepare):
        # the vertex as a linear map of its active offsets, as the vertex
        # formula reads it, reproduces the anchor point
        p = prepare(name)
        offsets = p.spec.offsets()
        for chart in p.charts:
            active = [offsets[i] for i in chart.active_set]
            evaluated = tuple(
                Fraction(sum(row[j] * active[j] for j in range(len(active))), chart.det)
                for row in chart.numerators
            )
            assert evaluated == chart.anchor

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dilation_scales_vertices(self, name, k, prepare):
        p = prepare(name)
        dilated = anchors(enumerate_vertices(p.spec.dilate(k)))
        assert dilated == sorted(
            tuple(k * x for x in a) for a in anchors(p.charts)
        )


def _validate(name):
    spec = load(name)
    return validate_delzant(spec, Prepared(spec).charts)


class TestValidateDelzant:
    def test_simplex_passes(self):
        assert _validate("simplex_2").ok

    def test_det2_triangle_fails_at_expected_vertex(self):
        report = _validate("triangle_det2")
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.anchor == (Fraction(1), Fraction(0))
        assert abs(failure.det) == 2

    def test_hirzebruch_passes(self):
        assert _validate("hirzebruch_a").ok


class TestFaceLattice:
    def test_simplex_profile(self, prepare):
        p = prepare("simplex_2")
        dims = sorted(rec.dim for rec in p.lattice.faces.values())
        assert dims == [0, 0, 0, 1, 1, 1, 2]
        # facets 1,2 intersect in the origin; all three have empty intersection
        corner = p.lattice.resolve((0, 1))
        assert corner is not None and corner.charts[0].anchor_ints() == (0, 0)
        assert p.lattice.resolve((0, 1, 2)) is None

    def test_square_parallel_facets_are_empty(self, prepare):
        p = prepare("square_unit")
        assert p.lattice.resolve((0, 1)) is None

    def test_hirzebruch_counts(self, prepare):
        p = prepare("hirzebruch_a")
        dims = sorted(rec.dim for rec in p.lattice.faces.values())
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_euler_relation(self, name, prepare):
        assert prepare(name).lattice.euler_sum() == 1


class TestDeterministicOrder:
    def test_charts_sorted_by_anchor(self):
        charts = enumerate_vertices(load("pentagon"))
        keys = [(sum(c.anchor), c.anchor) for c in charts]
        assert keys == sorted(keys)

    def test_build_twice_identical(self):
        spec = load("prism")
        first = [c.active_set for c in enumerate_vertices(spec)]
        second = [c.active_set for c in enumerate_vertices(spec)]
        assert first == second


@lru_cache(maxsize=None)
def _cofactors(rows):
    """Integer determinant and cofactors C[r][c] of a square matrix, by Laplace."""
    m = len(rows)
    det = ring_det(rows)
    if m == 1:
        return det, ((1,),)
    minors = [
        [
            ring_det([row[:c] + row[c + 1 :] for i, row in enumerate(rows) if i != r])
            for c in range(m)
        ]
        for r in range(m)
    ]
    return det, tuple(tuple((-1) ** (r + c) * minors[r][c] for c in range(m)) for r in range(m))


def _reference_vertex_points(normals, offsets):
    """Basic feasible points by Cramer's rule over Fraction, one point at a time.

    Shares nothing with ``int_solve``: each coordinate is a cofactor sum of
    Laplace determinants over the subset's determinant, and feasibility is
    checked on the Fraction point.
    """
    m = len(normals[0])
    found = {}
    for subset in combinations(range(len(normals)), m):
        det, cofactors = _cofactors(tuple(tuple(normals[i]) for i in subset))
        if det == 0:
            continue
        point = tuple(
            sum(Fraction(offsets[i]) * cofactors[r][c] for r, i in enumerate(subset)) / det
            for c in range(m)
        )
        values = [sum(n * x for n, x in zip(normal, point)) for normal in normals]
        if all(v <= o for v, o in zip(values, offsets)):
            found[point] = tuple(j for j, (v, o) in enumerate(zip(values, offsets)) if v == o)
    return sorted(found.items(), key=lambda kv: (sum(kv[0]), kv[0]))


class TestFeasibleVertexPoints:
    """The integer Cramer numerators against a Fraction reference."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_matches_reference_on_corpus(self, name):
        spec = load(name)
        normals, offsets = spec.normals(), spec.offsets()
        assert feasible_vertex_points(normals, offsets) == _reference_vertex_points(
            normals, offsets
        )

    @pytest.mark.parametrize("name", [*DELZANT_CORPUS, "triangle_det2"])
    def test_matches_reference_on_chamber_samples(self, name):
        # rational offsets: the samples q anchor + alpha scaled back to
        # anchor + alpha / q, q read off the least sample q anchor
        spec = load(name)
        normals, anchor = spec.normals(), spec.offsets()
        samples = chamber_samples(Prepared(spec))
        base = min(samples, key=sum)
        q = next(Fraction(b, a) for b, a in zip(base, anchor) if a)
        rational = [tuple(x / q for x in sample) for sample in samples]
        assert any(x.denominator > 1 for offsets in rational for x in offsets)
        for offsets in rational:
            assert feasible_vertex_points(normals, offsets) == _reference_vertex_points(
                normals, offsets
            )


def _as_lists(x):
    """An integer, or nested sequences of them as nested lists."""
    return [_as_lists(y) for y in x] if isinstance(x, (list, tuple)) else x


def _subset_path(spec):
    return subset_charts(spec.normals(), spec.offsets())


def _lattice_image(spec, rng):
    """The image of ``spec`` under a random U in GL_m(Z) and a translation t.

    U^{-1} is a signed permutation times three shears; {x : N x <= o}
    maps to {y : N U^{-1} y <= o + N U^{-1} t}.
    """
    m = spec.dim
    perm = rng.sample(range(m), m)
    u_inv = [[rng.choice((-1, 1)) if c == perm[r] else 0 for c in range(m)] for r in range(m)]
    for _ in range(3 if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        u_inv[i] = [a + c * b for a, b in zip(u_inv[i], u_inv[j])]
    shift = [rng.randint(-5, 5) for _ in range(m)]
    facets = []
    for f in spec.facets:
        image = tuple(sum(f.normal[r] * u_inv[r][c] for r in range(m)) for c in range(m))
        facets.append((image, f.offset + sum(a * t for a, t in zip(image, shift))))
    return HalfSpaceSpec(m, facets)


# a simplex whose vertices off the origin have dets 3 and -2
WEIGHTED = HalfSpaceSpec(
    3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 2, 3), 6)]
)


class TestEdgeWalk:
    """The walk's charts against the subset path's, chart for chart."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_start_candidates_are_the_nonsingular_subsets_in_lex_order(self, name):
        normals = load(name).normals()
        nonsingular = [
            subset
            for subset in combinations(range(len(normals)), len(normals[0]))
            if ring_det([normals[i] for i in subset]) != 0
        ]
        assert list(independent_subsets(normals)) == nonsingular
        # the walk's first basis is the first of them
        assert polytope._first_basis(normals) == nonsingular[0]

    @pytest.mark.parametrize("name", [*DELZANT_CORPUS, "triangle_det2"])
    def test_matches_subset_path_on_corpus(self, name):
        spec = load(name)
        assert walk(spec) == _subset_path(spec)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_subset_path_on_lattice_images(self, name, seed):
        spec = load(name)
        image = _lattice_image(spec, random.Random(f"{name}/{seed}"))
        charts = walk(image)
        assert charts == _subset_path(image)
        assert len(charts) == len(walk(spec))

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize(
        "factors, cuts, wide",
        [
            # dets 2, 4, -2: 21 vertices, 11 of them with |det| >= 2
            (("triangle_det2", "triangle_det2"), {0, 1, 2, 3}, 11),
            # dets up to 6 in dim 5: 20 vertices, 12 of them with |det| >= 2
            (("triangle_det2", "weighted"), {0, 2}, 12),
            # dets 3, 3, -3, -2
            (("weighted",), {1}, 4),
        ],
        ids=["det2-squared", "det2-by-weighted", "weighted"],
    )
    def test_matches_subset_path_where_det_exceeds_one(self, factors, cuts, wide, seed):
        """Pivots between non-unimodular charts divide by the old det and
        sort the entering facet into place, both exercised here."""
        factors = [WEIGHTED if f == "weighted" else load(f) for f in factors]
        spec = _blow_up(product_spec(*factors), cuts)
        if seed is not None:
            spec = _lattice_image(spec, random.Random(seed))
        charts = walk(spec)
        assert sum(abs(chart.det) >= 2 for chart in charts) == wide
        assert charts == _subset_path(spec)

    def test_matches_subset_path_on_blow_up_fixture(self):
        # a 5-cube of side 40 with 12 vertices cut off: d = 22, 80 vertices
        spec = parse_polytope_file((DATA / "cube5_blowup12.poly").read_text())
        charts = walk(spec)
        assert len(charts) == 80
        assert charts == _subset_path(spec)

    @pytest.mark.parametrize("name", [*DELZANT_CORPUS, "triangle_det2"])
    def test_reads_off_the_start_vertex_only(self, monkeypatch, name):
        """Every corpus member's first basis is feasible, so no phase 1 runs,
        and every other vertex's point and slacks come from the rates of
        the ratio test that found it (``_pivot``)."""
        read_offs = []
        read_off = polytope._read_off

        def counted(rows, rhs, active, det, inverse):
            read_offs.append(active)
            return read_off(rows, rhs, active, det, inverse)

        monkeypatch.setattr(polytope, "_read_off", counted)
        spec = load(name)
        charts = walk(spec)
        assert charts == _subset_path(spec)
        assert read_offs == [polytope._first_basis(spec.normals())]
        assert len(charts) > 1

    @pytest.mark.parametrize(
        "spec, widest",
        [
            (_blow_up(product_spec(load("triangle_det2"), WEIGHTED), {0, 2}), 6),
            # Delzant, and phase 1 finds the start
            (parse_polytope_file((DATA / "cube5_blowup12.poly").read_text()), 1),
        ],
        ids=["det2-by-weighted", "cube5_blowup12"],
    )
    def test_each_pivot_equals_a_fresh_solve(self, monkeypatch, spec, widest):
        """The neighbour's point and slacks, read from the rates, and its
        chart, from the rank-one update, are those its own solve gives."""
        offsets, pivots = spec.offsets(), []
        identity = [[int(i == j) for j in range(spec.dim)] for i in range(spec.dim)]
        pivot = polytope._pivot

        def checked(normals, vertex, active, i, j, neighbour, direction, rates):
            det, inverse, point, slacks = pivot(
                normals, vertex, active, i, j, neighbour, direction, rates
            )
            solved = polytope._vertex(normals, offsets, neighbour, identity)
            assert (det, inverse, point, slacks) == tuple(map(_as_lists, solved))
            pivots.append(abs(det))
            return det, inverse, point, slacks

        monkeypatch.setattr(polytope, "_pivot", checked)
        charts = walk(spec)
        assert len(pivots) == len(charts) - 1
        assert max(pivots) == widest


class TestPhaseOne:
    """Relabelled blow-ups, whose first basis of facets is often infeasible."""

    def test_relabelled_blow_ups_match_the_subset_path(self, monkeypatch):
        # each phase-1 pivot as (rows whose release lowers t, zero step)
        pivots, lifted = [], {}
        solve, ratio_test = polytope.int_solve, polytope._ratio_test

        def traced_solve(rows, cols):
            solved = solve(rows, cols)
            if len(rows) == lifted["dim"] + 1:
                det, inverse = solved
                lifted["improving"] = sum(det * x > 0 for x in inverse[-1])
            return solved

        def traced_ratio_test(rows, slacks, direction, outside):
            blocking, rate = ratio_test(rows, slacks, direction, outside)
            if len(rows[0]) == lifted["dim"] + 1:
                pivots.append((lifted["improving"], slacks[blocking[0]] == 0))
            return blocking, rate

        monkeypatch.setattr(polytope, "int_solve", traced_solve)
        monkeypatch.setattr(polytope, "_ratio_test", traced_ratio_test)

        @settings(derandomize=True, max_examples=60, deadline=None)
        # a degenerate pivot: at the start of phase 1 two rows lower t,
        # and releasing the least of them moves by zero
        @example(name="hirzebruch_a", cuts={1, 2}, order=[3, 0, 5, 2, 4, 1], seed=0)
        @given(
            name=st.sampled_from(DELZANT_CORPUS),
            cuts=st.sets(st.integers(0, 8), max_size=4),
            # the facet order, read as the entries below d
            order=st.permutations(range(10)),
            seed=st.integers(0, 2**16),
        )
        def check(name, cuts, order, seed):
            spec = _blow_up(load(name), cuts)
            spec = HalfSpaceSpec(
                spec.dim, [spec.facets[i] for i in order if i < spec.num_facets]
            )
            image = _lattice_image(spec, random.Random(seed))
            lifted["dim"] = image.dim
            assert walk(image) == _subset_path(image)

        check()
        assert len(pivots) >= 10
        assert (2, True) in pivots

    def test_a_ratio_tie_takes_the_least_row(self, monkeypatch):
        # the first basis, rows 0 and 1, meets at (5, 5), which violates
        # rows 2, 5 and 6 by 1 each, so phase 1 starts on a degenerate
        # vertex; its first pivot releases row 0 and is blocked at zero by
        # rows 5 and 6 at once, and Bland's rule takes row 5; row 7 is t >= 0
        spec = HalfSpaceSpec(
            2,
            [((1, 0), 5), ((0, 1), 5), ((3, 2), 24), ((-1, 0), 0), ((0, -1), 0)]
            + [((1, 3), 19), ((2, 5), 34)],
        )
        lifted = []
        vertex = polytope._vertex

        def traced(rows, rhs, active, identity):
            if len(rows) > spec.num_facets:
                lifted.append(active)
            return vertex(rows, rhs, active, identity)

        monkeypatch.setattr(polytope, "_vertex", traced)
        assert walk(spec) == _subset_path(spec)
        assert lifted == [(0, 1, 2), (1, 2, 5), (2, 5, 7)]
