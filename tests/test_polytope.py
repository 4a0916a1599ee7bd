from fractions import Fraction

import pytest

from delzant.corpus import DELZANT_CORPUS, load
from delzant.errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
)
from delzant.polytope import (
    HalfSpaceSpec,
    build_face_lattice,
    enumerate_vertices,
    validate_delzant,
)


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
