from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from delzant.corpus import DELZANT_CORPUS, corpus_names, load
from delzant.errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
)
from delzant.linalg import ring_det
from delzant.polytope import (
    HalfSpaceSpec,
    build_face_lattice,
    enumerate_vertices,
    feasible_vertex_points,
    validate_delzant,
)
from delzant.prepared import Prepared
from delzant.volume import chamber_samples


def anchors(charts):
    return sorted(c.anchor_ints() for c in charts)


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

    def test_pyramid_is_not_simple(self):
        with pytest.raises(NonSimpleError) as err:
            enumerate_vertices(load("pyramid_nonsimple"))
        assert err.value.point == (0, 0, 1)
        assert len(err.value.facets) == 4

    def test_unbounded_strip(self):
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((1, 0), 1), ((0, 1), 1)])
        with pytest.raises(UnboundedError):
            enumerate_vertices(spec)

    def test_unbounded_by_lineality(self):
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((1, 0), 2), ((1, 0), 1)])
        with pytest.raises(UnboundedError):
            enumerate_vertices(spec)

    def test_empty(self):
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), -1)])
        with pytest.raises(EmptyPolytopeError):
            enumerate_vertices(spec)

    def test_redundant_facet(self):
        spec = HalfSpaceSpec(
            2,
            [((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1), ((1, 1), 5)],
        )
        with pytest.raises(RedundantFacetError) as err:
            enumerate_vertices(spec)
        assert err.value.facets == (5,)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_simplicity_and_integrality(self, name, prepare):
        p = prepare(name)
        for chart in p.charts:
            assert len(chart.active_set) == p.spec.dim
            chart.anchor_ints()  # raises if not integral

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_symbolic_vertex_matches_anchor(self, name, prepare):
        # the vertex as a linear map of its active offsets, as the vertex
        # formula reads it, reproduces the anchor point
        p = prepare(name)
        offsets = p.spec.offsets()
        for chart in p.charts:
            active = [offsets[i] for i in chart.active_set]
            evaluated = tuple(
                sum(row[j] * active[j] for j in range(len(active)))
                for row in chart.inverse
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


class TestValidateDelzant:
    def test_simplex_passes(self):
        assert validate_delzant(load("simplex_2")).ok

    def test_det2_triangle_fails_at_expected_vertex(self):
        report = validate_delzant(load("triangle_det2"))
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.anchor == (Fraction(1), Fraction(0))
        assert abs(failure.det) == 2

    def test_hirzebruch_passes(self):
        assert validate_delzant(load("hirzebruch_a")).ok


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
