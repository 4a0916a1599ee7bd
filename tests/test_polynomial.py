import random
from fractions import Fraction

import pytest

from delzant.polynomial import (
    MultiPoly,
    UniPoly,
    euler_expansion_identity,
    euler_expansion_levels,
)


def random_poly(rng, nvars=3, max_exp=2, terms=4):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out[exps] = out.get(exps, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.randint(1, 4)
        )
    return MultiPoly(nvars, out)


class TestScalar:
    def test_always_reduced_with_positive_denominator(self):
        s = Fraction(6, -4)
        assert (s.numerator, s.denominator) == (-3, 2)
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_canonical_text(self):
        assert str(Fraction(3, 2)) == "3/2"
        assert str(Fraction(5, 1)) == "5"
        assert str(Fraction(-1, 720)) == "-1/720"


class TestSubstituteDilation:
    def test_simplex_ehrhart_shape(self):
        s = MultiPoly.zero(3)
        for i in range(3):
            s = s + MultiPoly.variable(3, i)
        p = s * s * Fraction(1, 2) + s * Fraction(3, 2) + 1
        assert p.substitute_dilation((0, 0, 1)) == UniPoly(
            [1, Fraction(3, 2), Fraction(1, 2)]
        )

    def test_zero(self):
        assert MultiPoly.zero(2).substitute_dilation((1, 2)) == UniPoly()

    def test_monomial(self):
        p = MultiPoly.variable(3, 0) * MultiPoly.variable(3, 2)
        assert p.substitute_dilation((2, 0, 5)) == UniPoly([0, 0, 10])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.constant(3, 1).substitute_dilation((1, 2))

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        anchor = (2, Fraction(1, 3), -1)
        for _ in range(25):
            p = random_poly(rng)
            q = random_poly(rng)
            assert (p * q).substitute_dilation(anchor) == p.substitute_dilation(
                anchor
            ) * q.substitute_dilation(anchor)
            assert (p + q).substitute_dilation(anchor) == p.substitute_dilation(
                anchor
            ) + q.substitute_dilation(anchor)


class TestRingAxioms:
    def test_distributivity_on_random_triples(self):
        rng = random.Random(3)
        for _ in range(30):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r

    def test_commutativity_and_associativity(self):
        rng = random.Random(4)
        for _ in range(20):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p + q == q + p

    def test_zero_terms_are_dropped(self):
        p = MultiPoly(2, {(1, 0): Fraction(1)})
        assert (p - p).terms() == {}
        assert (p - p).is_zero()


class TestEulerExpansion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_holds(self, n):
        assert euler_expansion_identity(n)

    @pytest.mark.parametrize("n", [0, 13, -2])
    def test_range_error(self, n):
        with pytest.raises(ValueError):
            euler_expansion_identity(n)

    def test_two_variable_expansion_from_proof(self):
        # (1-x1) + (1-x2) - (1-x1)(1-x2) == 1 - x1*x2
        levels = euler_expansion_levels(2)
        one = MultiPoly.constant(2, 1)
        c1 = one - MultiPoly.variable(2, 0)
        c2 = one - MultiPoly.variable(2, 1)
        assert levels[0][2] == c1 + c2
        assert levels[1][2] == c1 * c2
        assert [sign for _, sign, _ in levels] == [1, -1]

    def test_level_signs_alternate(self):
        signs = [sign for _, sign, _ in euler_expansion_levels(6)]
        assert signs == [1, -1, 1, -1, 1, -1]


class TestUniPoly:
    def test_interpolate_recovers_polynomial(self):
        target = UniPoly([2, 0, 2])  # 2k^2 + 2
        points = [(k, target.evaluate(k)) for k in range(1, 4)]
        assert UniPoly.interpolate(points) == target

    def test_interpolate_needs_distinct_nodes(self):
        with pytest.raises(ValueError):
            UniPoly.interpolate([(1, 1), (1, 2)])

    def test_text_forms(self):
        assert UniPoly([2, 0, 2]).to_text() == "2k^2 + 2"
        assert UniPoly([0, Fraction(25, 6), 0, Fraction(5, 6)]).to_text() == (
            "(5/6)k^3 + (25/6)k"
        )
        assert UniPoly([1, -1]).to_text() == "-k + 1"
        assert UniPoly().to_text() == "0"
        assert UniPoly([0, 3]).to_text() == "3k"

    def test_degree_and_trim(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly().degree == -1


class TestMultiPolyText:
    def test_graded_lex_descending(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        p = (x1 + x2) * (x1 + x2)
        assert p.to_text() == "l1^2 + 2*l1*l2 + l2^2"

    def test_fractional_coefficients_parenthesized(self):
        p = MultiPoly(2, {(2, 0): Fraction(1, 2), (0, 0): Fraction(1)})
        assert p.to_text() == "(1/2)*l1^2 + 1"

    def test_zero(self):
        assert MultiPoly.zero(2).to_text() == "0"
