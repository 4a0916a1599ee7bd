import random
from fractions import Fraction
from math import comb, factorial

import pytest

from delzant.corpus import DELZANT_CORPUS, load
from delzant.errors import ChamberCrossedError
from delzant.linalg import ring_det
from delzant.polynomial import MultiPoly
from delzant.polytope import (
    HalfSpaceSpec,
    build_face_lattice,
    enumerate_vertices,
    feasible_vertex_points,
)
from delzant.prepared import Prepared
from delzant.volume import (
    _lawrence_volume,
    _moment_direction,
    _simplex_det,
    boundary_volume_polynomial,
    chamber_samples,
    facet_volume_direct,
    facet_volume_sum,
    numeric_volume_at,
    volume_polynomial,
)

SAMPLE_COUNT_CAP = 40  # the full C(d+m, m) sweep runs in the acceptance suite

# 0 <= y <= 1, 0 <= x <= 4 - 2y: simple, with an edge orthogonal to xi = (1, 2)
TRAPEZOID = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 2), 4)])

# x >= 0, y >= 0, 2x + y <= 1: simple, with the vertex (1/2, 0) off the lattice
HALF_TRIANGLE = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)])


def variables(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


def product_spec(*factors):
    """P x Q x ...: each factor's facets, padded with zeros to the full dimension."""
    dim = sum(f.dim for f in factors)
    facets, shift = [], 0
    for f in factors:
        for normal, offset in f.facets:
            facets.append(((0,) * shift + normal + (0,) * (dim - shift - f.dim), offset))
        shift += f.dim
    return HalfSpaceSpec(dim, facets)


def volume_of(spec):
    charts = enumerate_vertices(spec)
    return volume_polynomial(spec, build_face_lattice(spec, charts)).poly


def matches_oracle(spec, poly):
    prep = Prepared(spec)
    return all(
        poly.evaluate(sample) == numeric_volume_at(prep, sample)
        for sample in chamber_samples(prep)
    )


def embed(poly, shift, nvars):
    """poly with its variables renumbered from ``shift`` on, in ``nvars`` variables."""
    width = poly.nvars
    return MultiPoly(
        nvars,
        {(0,) * shift + e + (0,) * (nvars - shift - width): c for e, c in poly.terms().items()},
    )


class TestVolumePolynomial:
    def test_unit_simplex_family(self, prepare):
        p = prepare("simplex_2")
        l1, l2, l3 = variables(3)
        s = l1 + l2 + l3
        assert p.vol.poly == s * s * Fraction(1, 2)
        assert p.vol.poly.evaluate((0, 0, 1)) == Fraction(1, 2)

    def test_unit_square_family(self, prepare):
        p = prepare("square_unit")
        l1, l2, l3, l4 = variables(4)
        assert p.vol.poly == (l1 + l2) * (l3 + l4)

    def test_hirzebruch_family(self, prepare):
        # rectangle of width l1+l2+l4 and height l2+l3, minus the corner
        # triangle of leg l2+l3 cut by the slanted facet; shoelace-verified
        p = prepare("hirzebruch_a")
        l1, l2, l3, l4 = variables(4)
        height = l2 + l3
        expected = height * (l1 + l2 + l4) - height * height * Fraction(1, 2)
        assert p.vol.poly == expected
        assert p.vol.poly.evaluate((0, 0, 1, 2)) == Fraction(3, 2)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_homogeneous_of_degree_m(self, name, prepare):
        p = prepare(name)
        assert all(sum(e) == p.spec.dim for e in p.vol.poly.terms())

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_apex_choice_does_not_matter(self, name, prepare):
        # the direction xi is the vertex formula's only free choice, as the
        # cone apex is the triangulation's: two generic directions, one sum
        p = prepare(name)
        charts = p.lattice.faces[()].charts
        m, d = p.spec.dim, p.spec.num_facets
        first = _lawrence_volume(charts, d, (3, -5, 7, 11)[:m])
        second = _lawrence_volume(charts, d, (17, 2, -13, 19)[:m])
        assert first == second == p.vol.poly

    def test_direction_orthogonal_to_an_edge_is_refused(self, prepare):
        p = prepare("square_unit")
        with pytest.raises(ValueError, match="orthogonal to an edge"):
            _lawrence_volume(p.lattice.faces[()].charts, 4, (1, 0))

    def test_direction_search_skips_b_orthogonal_to_an_edge(self):
        # at (2, 1) and (4, 0) xi = (1, 2) pairs to 0 with the trapezoid's
        # slanted edge, so the search takes b = 3
        assert _moment_direction(enumerate_vertices(TRAPEZOID), 2) == (1, 3)
        assert matches_oracle(TRAPEZOID, volume_of(TRAPEZOID))

    def test_vertex_weight_carries_the_determinant(self):
        # simple but not Delzant: the vertex (1, 0) has |det N_v| = 2
        spec = load("triangle_det2")
        assert matches_oracle(spec, volume_of(spec))

    @pytest.mark.parametrize(
        "names",
        [
            ("simplex_2", "simplex_3"),
            ("simplex_2", "simplex_2", "segment_unit"),
            ("segment_unit",) * 5,
        ],
        ids=lambda names: "x".join(names),
    )
    def test_product_volume_is_product_of_volumes(self, names):
        factors = [load(name) for name in names]
        nvars = sum(f.num_facets for f in factors)
        expected, shift = MultiPoly.constant(nvars, 1), 0
        for f in factors:
            expected = expected * embed(volume_of(f), shift, nvars)
            shift += f.num_facets
        assert volume_of(product_spec(*factors)) == expected

    def test_standard_6_simplex(self):
        m = 6
        facets = [(tuple(-int(i == j) for j in range(m)), 0) for i in range(m)]
        spec = HalfSpaceSpec(m, facets + [((1,) * m, 1)])
        total = sum(variables(m + 1), MultiPoly.zero(m + 1))
        power = MultiPoly.constant(m + 1, 1)
        for _ in range(m):
            power = power * total
        assert volume_of(spec) == power * Fraction(1, factorial(m))


class TestBoundaryVolume:
    def test_unit_simplex(self, prepare):
        p = prepare("simplex_2")
        boundary = boundary_volume_polynomial(p.vol)
        l1, l2, l3 = variables(3)
        assert boundary.poly == (l1 + l2 + l3) * 3
        assert boundary.poly.evaluate((0, 0, 1)) == 3

    def test_unit_square(self, prepare):
        p = prepare("square_unit")
        boundary = boundary_volume_polynomial(p.vol)
        l1, l2, l3, l4 = variables(4)
        assert boundary.poly == (l1 + l2) * 2 + (l3 + l4) * 2
        assert boundary.poly.evaluate((0, 1, 0, 1)) == 4

    def test_segment_endpoints(self, prepare):
        p = prepare("segment_unit")
        l1, l2 = variables(2)
        assert p.vol.poly == l1 + l2
        boundary = boundary_volume_polynomial(p.vol)
        assert boundary.poly == MultiPoly.constant(2, 2)
        assert [q.evaluate((0, 1)) for q in boundary.per_facet] == [1, 1]

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_degree_drops_by_one(self, name, prepare):
        p = prepare(name)
        boundary = boundary_volume_polynomial(p.vol)
        assert all(sum(e) == p.spec.dim - 1 for e in boundary.poly.terms())

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_per_facet_summand_equals_direct_facet_volume(self, name, prepare):
        p = prepare(name)
        boundary = boundary_volume_polynomial(p.vol)
        offsets = p.spec.offsets()
        for i in range(p.spec.num_facets):
            derivative = boundary.per_facet[i].evaluate(offsets)
            direct = facet_volume_direct(p.spec, p.lattice, i)
            assert derivative == direct

    @pytest.mark.parametrize("name", ["triangle_det2", "trapezoid", "half_triangle"])
    def test_direct_facet_volume_beyond_the_delzant_corpus(self, name):
        spec = {"trapezoid": TRAPEZOID, "half_triangle": HALF_TRIANGLE}.get(name) or load(name)
        lattice = build_face_lattice(spec, enumerate_vertices(spec))
        boundary = boundary_volume_polynomial(volume_polynomial(spec, lattice))
        direct = [facet_volume_direct(spec, lattice, i) for i in range(spec.num_facets)]
        assert direct == [q.evaluate(spec.offsets()) for q in boundary.per_facet]
        if name == "half_triangle":
            # the slanted edge is (1/2)(-1, 2), half a primitive lattice step
            assert direct == [1, Fraction(1, 2), Fraction(1, 2)]

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_derivative_sum_equals_facet_volume_sum(self, name, prepare):
        p = prepare(name)
        boundary = boundary_volume_polynomial(p.vol)
        assert boundary.poly.evaluate(p.spec.offsets()) == facet_volume_sum(
            p.spec, p.lattice
        )


class TestSimplexDet:
    def test_matches_laplace_on_rational_matrices(self):
        # the oracle's own elimination against the Laplace expansion
        rng = random.Random(47)
        for n in range(1, 6):
            for case in range(30):
                rows = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)
                ]
                if case % 3 == 1:
                    rows[0][0] = Fraction(0)
                elif case % 3 == 2 and n > 1:
                    rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[-2])]
                assert _simplex_det(rows) == ring_det(rows)

    def test_integer_rows(self):
        # integer entries have denominator 1, so no scaling is needed
        assert _simplex_det([[0, -1], [2, 1]]) == 2
        assert _simplex_det([[1, 2], [2, 4]]) == 0


class TestNumericOracle:
    def test_simplex_at_anchor(self):
        assert numeric_volume_at(Prepared(load("simplex_2")), (0, 0, 1)) == Fraction(1, 2)

    def test_simplex_at_rational_sample(self):
        # moving the first facet out by 1/3 gives legs of 4/3
        prep = Prepared(load("simplex_2"))
        assert numeric_volume_at(prep, (Fraction(1, 3), 0, 1)) == Fraction(8, 9)

    def test_box_sample(self):
        assert numeric_volume_at(Prepared(load("square_unit")), (0, 2, 0, 3)) == 6

    def test_chamber_crossing_detected(self):
        with pytest.raises(ChamberCrossedError):
            numeric_volume_at(Prepared(load("simplex_2")), (0, 0, -5))

    def test_wrong_sample_length(self):
        with pytest.raises(ValueError):
            numeric_volume_at(Prepared(load("simplex_2")), (0, 1))

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_polynomial_matches_oracle_on_chamber_samples(self, name, prepare):
        p = prepare(name)
        for sample in chamber_samples(p)[:SAMPLE_COUNT_CAP]:
            assert p.vol.poly.evaluate(sample) == numeric_volume_at(p, sample)


class TestPrincipalLattice:
    @pytest.mark.parametrize("name", [*DELZANT_CORPUS, "triangle_det2", "trapezoid"])
    def test_samples_are_the_principal_lattice_in_the_chamber(self, name):
        spec = TRAPEZOID if name == "trapezoid" else load(name)
        prep = Prepared(spec)
        d, m = spec.num_facets, spec.dim
        samples = chamber_samples(prep)
        assert len(samples) == len(set(samples)) == comb(d + m, m)
        steps = [[s - o for s, o in zip(sample, spec.offsets())] for sample in samples]
        # the corners alpha = m e_i take the largest step, m/q
        q = m / max(sum(step) for step in steps)
        assert q.denominator == 1
        for step in steps:
            alpha = [x * q for x in step]
            assert all(a.denominator == 1 and a >= 0 for a in alpha)
            assert sum(alpha) <= m
        anchor_incidence = sorted(chart.active_set for chart in prep.charts)
        for sample in samples:
            points = feasible_vertex_points(spec.normals(), sample)
            assert sorted(active for _, active in points) == anchor_incidence

    @pytest.mark.parametrize("name", [n for n in DELZANT_CORPUS if load(n).dim <= 3])
    def test_sweep_catches_every_one_monomial_mutant(self, name, prepare):
        # the volume plus o_i^m for each facet i, or plus the constant 1
        p = prepare(name)
        d, m = p.spec.num_facets, p.spec.dim
        samples = chamber_samples(p)
        oracle = [numeric_volume_at(p, sample) for sample in samples]
        assert [p.vol.poly.evaluate(sample) for sample in samples] == oracle
        monomials = [tuple(m * (i == j) for j in range(d)) for i in range(d)]
        for exps in monomials + [(0,) * d]:
            mutant = p.vol.poly + MultiPoly(d, {exps: Fraction(1)})
            values = [mutant.evaluate(sample) for sample in samples]
            assert values != oracle, exps
