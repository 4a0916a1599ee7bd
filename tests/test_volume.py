import random
from fractions import Fraction
from math import comb, factorial

import pytest

import delzant.volume as volume
from delzant.corpus import DELZANT_CORPUS, load
from delzant.errors import ChamberCrossedError
from delzant.linalg import int_solve, ring_det
from delzant.polynomial import MultiPoly
from delzant.polytope import (
    HalfSpaceSpec,
    build_face_lattice,
    enumerate_vertices,
)
from delzant.prepared import Prepared
from delzant.volume import (
    _anchor_vertices,
    _cone_sum,
    _lawrence_volume,
    _moment_direction,
    _solve,
    boundary_volume_polynomial,
    chamber_samples,
    facet_volume_direct,
    facet_volume_sum,
    numeric_volume_at,
    volume_polynomial,
)
from generators import product_spec
from subset_reference import feasible_vertex_points

SAMPLE_COUNT_CAP = 40  # the full C(d+m, m) sweep runs in the acceptance suite

# 0 <= y <= 1, 0 <= x <= 4 - 2y: simple, with an edge orthogonal to xi = (1, 2)
TRAPEZOID = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 2), 4)])

# x >= 0, y >= 0, 2x + y <= 1: simple, with the vertex (1/2, 0) off the lattice
HALF_TRIANGLE = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)])


def variables(n):
    return [MultiPoly.variable(n, i) for i in range(n)]


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


class TestConeSum:
    def test_matches_ring_det_with_mixed_denominators(self):
        # each simplex's |det| from the oracle's rows (D_v, x_v) against the
        # Laplace expansion on its Fraction edge vectors p_v - p_0
        rng = random.Random(47)
        for m in range(1, 5):
            for case in range(30):
                coords = {}
                for v in range(m + 1):
                    den = rng.randint(1, 5)
                    coords[(v,)] = (den, [rng.randint(-6, 6) for _ in range(m)])
                if case % 3 == 1 and m > 1:
                    # the last vertex on the line through the first two: degenerate
                    (d0, x0), (d1, x1) = coords[(0,)], coords[(1,)]
                    coords[(m,)] = (d0 * d1, [2 * a * d1 - b * d0 for a, b in zip(x0, x1)])
                points = [[Fraction(c, den) for c in x] for den, x in coords.values()]
                edges = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
                num, den = _cone_sum([tuple(coords)], coords)
                assert Fraction(num, den) == abs(ring_det(edges))

    def test_unit_denominators(self):
        # with every D = 1 the sum is a plain integer over 1
        coords = {(0,): (1, [0, 0]), (1,): (1, [0, -1]), (2,): (1, [2, 1]), (3,): (1, [4, 2])}
        assert _cone_sum([((0,), (1,), (2,))], coords) == (2, 1)
        assert _cone_sum([((0,), (2,), (3,))], coords) == (0, 1)


class TestOracleSolve:
    def test_matches_int_solve_on_random_matrices(self):
        # the oracle's Gauss-Jordan elimination against the charts' solver
        rng = random.Random(53)
        singular = 0
        for n in range(1, 6):
            for case in range(40):
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                if case % 4 == 1:
                    rows[0][0] = 0
                elif case % 4 == 2:
                    rows[-1] = [2 * a for a in rows[0]]  # singular for n > 1
                elif case % 4 == 3:
                    rows[rng.randrange(n)] = [0] * n
                rhs = [rng.randint(-9, 9) for _ in range(n)]
                expected = int_solve(rows, [[b] for b in rhs])
                if expected is None:
                    singular += 1
                    assert _solve(rows, rhs) is None
                else:
                    det, x = expected
                    assert _solve(rows, rhs) == (det, [c for c, in x])
        assert singular >= 50


class TestNumericOracle:
    def test_simplex_at_anchor(self):
        assert numeric_volume_at(Prepared(load("simplex_2")), (0, 0, 1)) == Fraction(1, 2)

    def test_simplex_at_rational_sample(self):
        # moving the first facet out by 1/3 gives legs of 4/3
        prep = Prepared(load("simplex_2"))
        assert numeric_volume_at(prep, (Fraction(1, 3), 0, 1)) == Fraction(8, 9)

    def test_box_sample(self):
        assert numeric_volume_at(Prepared(load("square_unit")), (0, 2, 0, 3)) == 6


    def test_collapsed_vertex_is_caught_by_tightness(self):
        # x, y <= 2 and x + y <= 4: the cut facet 5 shrinks to the point
        # (2, 2), so every vertex still satisfies every facet and the
        # polynomial still reads the true area 4; only the two cut vertices
        # turning tight on 3 facets show the crossing, and the first in
        # chart order is the one on facets 4 and 5
        prep = Prepared(load("pentagon"))
        sample = (0, 0, 2, 2, 4)
        assert prep.require_delzant().vol.poly.evaluate(sample) == 4
        with pytest.raises(ChamberCrossedError) as caught:
            numeric_volume_at(prep, sample)
        error = caught.value
        assert (error.facets, error.point, error.violated, error.tight) == (
            (4, 5),
            (2, 2),
            None,
            (3, 4, 5),
        )
        assert str(error) == (
            "sample offsets lie outside the chamber of the anchor offsets: "
            "the vertex on facets [4, 5] moves to (2, 2), which is tight on facets [3, 4, 5]"
        )

    def test_chamber_crossing_detected(self):
        # o_3 = -5 leaves the vertex on facets 1 and 2 at the origin, outside x + y <= -5
        with pytest.raises(ChamberCrossedError) as caught:
            numeric_volume_at(Prepared(load("simplex_2")), (0, 0, -5))
        assert (caught.value.facets, caught.value.point, caught.value.violated) == (
            (1, 2),
            (0, 0),
            3,
        )
        assert str(caught.value).endswith(
            "the vertex on facets [1, 2] moves to (0, 0), which violates facet 3"
        )

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_proven_vertices_are_the_reference_vertices(self, name, prepare):
        # the anchor-only solve and its incidence proof against the full
        # C(d, m) subset enumeration, point for point and set for set
        p = prepare(name)
        normals = p.spec.normals()
        actives = [chart.active_set for chart in p.charts]
        for sample in chamber_samples(p):
            proven = [
                (tuple(Fraction(c, den) for c in x), active)
                for active, (den, x) in _anchor_vertices(normals, actives, sample).items()
            ]
            reference = feasible_vertex_points(normals, sample)
            assert sorted(proven) == sorted(reference)

    def test_simplex_with_mixed_denominators(self):
        # HALF_TRIANGLE's vertex (1/2, 0) is the pair D = 2, x = (1, 0) and
        # its other two have D = 1: the one simplex divides by prod D_v = 2
        prep, poly = Prepared(HALF_TRIANGLE), volume_of(HALF_TRIANGLE)
        anchor = HALF_TRIANGLE.offsets()
        assert numeric_volume_at(prep, anchor) == poly.evaluate(anchor) == Fraction(1, 4)
        for sample in chamber_samples(prep):
            assert numeric_volume_at(prep, sample) == poly.evaluate(sample)

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
        anchor = spec.offsets()
        samples = chamber_samples(prep)
        assert len(samples) == len(set(samples)) == comb(d + m, m)
        # the least sample is alpha = 0, q anchor
        base = min(samples, key=sum)
        q = next(b // a for b, a in zip(base, anchor) if a)
        assert base == tuple(q * a for a in anchor)
        assert q >= 2 and q & (q - 1) == 0
        for sample in samples:
            alpha = [s - q * a for s, a in zip(sample, anchor)]
            assert all(isinstance(a, int) and a >= 0 for a in alpha)
            assert sum(alpha) <= m
        anchor_incidence = sorted(chart.active_set for chart in prep.charts)
        for sample in samples:
            points = feasible_vertex_points(spec.normals(), sample)
            assert sorted(active for _, active in points) == anchor_incidence

    def test_oracle_that_rejects_everything_raises(self, monkeypatch):
        # a determinant of the wrong sign mirrors every vertex, so no q can
        # pass; once the corners fail at q = 2, the anchor's own proof raises
        proofs = []
        prove, solve = volume._anchor_vertices, volume._solve

        def flipped(rows, rhs):
            det, x = solve(rows, rhs)
            return -det, x

        def counted(normals, actives, offsets):
            proofs.append(tuple(offsets))
            assert len(proofs) <= 10, "q doubled without end"
            return prove(normals, actives, offsets)

        monkeypatch.setattr(volume, "_solve", flipped)
        monkeypatch.setattr(volume, "_anchor_vertices", counted)
        prep = Prepared(load("simplex_2"))
        with pytest.raises(ChamberCrossedError):
            chamber_samples(prep)
        # the first corner at q = 2, then the anchor
        assert proofs == [(2, 0, 2), prep.spec.offsets()]

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
