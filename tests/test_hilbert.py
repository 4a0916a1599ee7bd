from fractions import Fraction
from math import factorial

import pytest

import delzant.hilbert as hilbert_mod
from delzant.corpus import DELZANT_CORPUS, load
from delzant.counting import count_points
from delzant.errors import DisagreementError, NotDelzantError
from delzant.hilbert import (
    cross_check,
    cy_hilbert_polynomial,
    inclusion_exclusion_count,
    inclusion_exclusion_levels,
)
from delzant.polynomial import UniPoly, euler_expansion_levels
from delzant.prepared import Prepared


def binomial_poly(shift, m):
    """C(k + shift, m) as a polynomial in k: prod_{i=0}^{m-1} (k + shift - i) / m!"""
    out = UniPoly([1])
    for i in range(m):
        out = out * UniPoly([shift - i, 1])
    return out * Fraction(1, factorial(m))


class TestInclusionExclusion:
    def test_simplex_k2(self, prepare):
        # three edges of the doubled simplex have 3 points each, three
        # vertices have 1, the triple intersection is empty: 9 - 3 + 0 = 6
        p = prepare("simplex_2")
        levels = inclusion_exclusion_levels(p, 2)
        assert levels == [(1, 1, 9), (2, -1, 3), (3, 1, 0)]
        assert inclusion_exclusion_count(p, 2) == 6

    def test_square_k1(self, prepare):
        # 4 edges of 2 points each minus 4 corners; parallel pairs are empty
        p = prepare("square_unit")
        assert inclusion_exclusion_count(p, 1) == 4

    def test_segment_k5(self, prepare):
        p = prepare("segment_unit")
        assert inclusion_exclusion_count(p, 5) == 2

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_brute_boundary_count(self, name, k, prepare):
        p = prepare(name)
        via_faces = inclusion_exclusion_count(p, k)
        assert via_faces == count_points(p.spec, k, "boundary", charts=p.charts)

    def test_sign_pattern_parallels_product_expansion(self, prepare):
        # the level signs of the face-count sum and of the polynomial-ring
        # expansion of 1 - x1*...*xn are the same alternating sequence
        p = prepare("cube_unit")
        face_signs = [
            sign
            for _, sign, _ in inclusion_exclusion_levels(p, 1)
        ]
        ring_signs = [sign for _, sign, _ in euler_expansion_levels(6)]
        assert face_signs == ring_signs


class TestCyHilbertPolynomial:
    @pytest.mark.parametrize(
        "name,coeffs",
        [
            ("simplex_2", (0, 3)),
            ("simplex_3", (2, 0, 2)),
            ("simplex_4", (0, Fraction(25, 6), 0, Fraction(5, 6))),
        ],
    )
    def test_projective_space_hypersurfaces(self, name, coeffs):
        report = cy_hilbert_polynomial(Prepared(load(name)))
        expected = UniPoly(coeffs)
        assert report.agree
        assert report.by_inclusion_exclusion.poly == expected
        assert report.by_operator_formula.poly == expected
        assert report.by_oracle.poly == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_simplex_boundary_matches_binomial_difference(self, m):
        # boundary Ehrhart of the unit m-simplex: C(k+m, m) - C(k-1, m)
        report = cy_hilbert_polynomial(Prepared(load(f"simplex_{m}")))
        expected = binomial_poly(m, m) - binomial_poly(-1, m)
        assert report.by_oracle.poly == expected

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_simplex_facets_carry_lower_simplex_ehrhart(self, m):
        report = cy_hilbert_polynomial(Prepared(load(f"simplex_{m}")))
        expected = binomial_poly(m - 1, m - 1)
        facet_keys = [key for key in report.per_face if len(key) == 1]
        assert len(facet_keys) == m + 1
        for key in facet_keys:
            assert report.per_face[key].poly == expected

    def test_vertex_faces_are_constant_one(self):
        report = cy_hilbert_polynomial(Prepared(load("square_unit")))
        for key, entry in report.per_face.items():
            if len(key) == 2:
                assert entry.poly == UniPoly([1])

    def test_rejects_non_delzant_input(self):
        with pytest.raises(NotDelzantError):
            cy_hilbert_polynomial(Prepared(load("triangle_det2")))

    def test_disagreement_is_fatal_with_diagnostics(self, monkeypatch):
        # sabotage the oracle route: a wrong boundary count must abort
        real = hilbert_mod.ehrhart_interpolate

        def lying(spec, kind, **kwargs):
            result = real(spec, kind, **kwargs)
            return type(result)(poly=result.poly + UniPoly([1]), kind=result.kind)

        monkeypatch.setattr(hilbert_mod, "ehrhart_interpolate", lying)
        with pytest.raises(DisagreementError) as err:
            cy_hilbert_polynomial(Prepared(load("simplex_2")))
        assert err.value.report is not None
        assert not err.value.report.agree


class TestCrossCheck:
    def test_all_checks_pass_on_a_small_polytope(self):
        report = cross_check(Prepared(load("hirzebruch_a")))
        assert report.ok
        assert len(report.checks) == 10
        assert all(c.ok for c in report.checks)

    def test_rejects_non_delzant(self):
        with pytest.raises(NotDelzantError):
            cross_check(Prepared(load("triangle_det2")))
