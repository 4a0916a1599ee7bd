import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delzant.corpus import DELZANT_CORPUS
from delzant.counting import fit_face, read_region
from delzant.polynomial import (
    MultiPoly,
    UniPoly,
    euler_expansion_identity,
    euler_expansion_levels,
)
from generators import random_poly
from reference_printer import multi_text, uni_text
from unipoly_reference import FractionUniPoly


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
        # products and sums in the Fraction reference, differences in UniPoly
        in_k = lambda poly: FractionUniPoly(poly.substitute_dilation(anchor).coeffs)
        for _ in range(25):
            p = random_poly(rng)
            q = random_poly(rng)
            assert in_k(p * q) == in_k(p) * in_k(q)
            assert in_k(p + q) == in_k(p) + in_k(q)
            assert (p - q).substitute_dilation(anchor) == p.substitute_dilation(
                anchor
            ) - q.substitute_dilation(anchor)
            for k in (1, 2, 3):
                assert p.substitute_dilation(anchor).evaluate(k) == p.evaluate(
                    [k * x for x in anchor]
                )


class TestEvaluate:
    """``evaluate`` and ``substitute_dilation`` share one integer term loop
    (``_by_degree``); both are checked here against a term-by-term
    ``Fraction`` sum, and against each other on the corpus."""

    @staticmethod
    def naive(p, values):
        total = Fraction(0)
        for exps, coeff in p.terms().items():
            term = coeff
            for v, e in zip(values, exps):
                term *= Fraction(v) ** e
            total += term
        return total

    def test_matches_naive_sum_at_mixed_denominators(self):
        rng = random.Random(19)
        for _ in range(40):
            p = random_poly(rng, nvars=3, max_exp=3, terms=6)
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)]
            values[rng.randrange(3)] = rng.randint(-3, 3)  # an int among the fractions
            assert p.evaluate(values) == self.naive(p, values)

    def test_dilation_coefficients_match_naive_sums_per_degree(self):
        rng = random.Random(29)
        anchor = (Fraction(2, 3), Fraction(-5, 4), 7)
        for _ in range(25):
            p = random_poly(rng, nvars=3, max_exp=3, terms=6)
            by_degree = p.substitute_dilation(anchor)
            for n in range(3 * 3 + 1):  # up to nvars * max_exp
                part = MultiPoly(3, {e: c for e, c in p.terms().items() if sum(e) == n})
                assert by_degree.coefficient(n) == self.naive(part, anchor)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_value_is_the_dilation_at_one_on_the_corpus(self, name, prepare):
        prep = prepare(name)
        offsets = prep.spec.offsets()
        rng = random.Random(name)
        points = [
            offsets,
            [o + rng.randint(-2, 2) for o in offsets],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in offsets],
        ]
        for p in (prep.vol.poly, prep.boundary.poly):
            for values in points:
                assert p.evaluate(values) == p.substitute_dilation(values).evaluate(1)

    def test_zero_and_length_mismatch(self):
        assert MultiPoly.zero(2).evaluate((Fraction(1, 3), 2)) == 0
        with pytest.raises(ValueError):
            MultiPoly.constant(3, 1).evaluate((1, 2))


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
        # the Lagrange reference every fit is compared with
        target = UniPoly([2, 0, 2])  # 2k^2 + 2
        points = [(k, target.evaluate(k)) for k in range(1, 4)]
        assert FractionUniPoly.interpolate(points).coeffs == target.coeffs

    def test_interpolate_needs_distinct_nodes(self):
        with pytest.raises(ValueError):
            FractionUniPoly.interpolate([(1, 1), (1, 2)])

    def test_text_forms(self):
        assert UniPoly([2, 0, 2]).to_text() == "2k^2 + 2"
        assert UniPoly([0, Fraction(25, 6), 0, Fraction(5, 6)]).to_text() == (
            "(5/6)k^3 + (25/6)k"
        )
        assert UniPoly([1, -1]).to_text() == "-k + 1"
        assert UniPoly().to_text() == "0"
        assert UniPoly([0, 3]).to_text() == "3k"

    def test_at_is_exact(self):
        triangular = UniPoly([0, Fraction(1, 2), Fraction(1, 2)])  # k(k + 1)/2
        big = 10**20
        assert [triangular.at(k) for k in (-3, 0, 4, big)] == [3, 0, 10, big * (big + 1) // 2]
        with pytest.raises(ValueError, match=r"^\(1/2\)k \+ 1 takes no integer value at k=-3$"):
            UniPoly([1, Fraction(1, 2)]).at(-3)

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


# negative, +-1, integral and fractional, some past the small-int range
_COEFFS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
    st.fractions(max_denominator=12).filter(lambda c: abs(c.numerator) < 10**4),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)


class TestTextMatchesReference:
    """The integer printers against the Fraction-based reference printer."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        nvars=st.integers(1, 4),
        raw=st.lists(
            st.tuples(st.lists(st.integers(0, 3), min_size=4, max_size=4), _COEFFS),
            max_size=8,
        ),
    )
    def test_multi_poly(self, nvars, raw):
        # terms with every exponent 0 are constant terms; an empty or
        # all-zero draw is the zero polynomial
        poly = MultiPoly(nvars, {tuple(exps[:nvars]): c for exps, c in raw})
        assert poly.to_text() == multi_text(poly)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(coeffs=st.lists(_COEFFS, max_size=7))
    def test_uni_poly(self, coeffs):
        poly = UniPoly(coeffs)
        assert poly.to_text() == uni_text(poly)

    @pytest.mark.parametrize(
        "poly, text",
        [
            (MultiPoly.zero(3), "0"),
            (MultiPoly.constant(2, -1), "-1"),
            (MultiPoly.constant(2, Fraction(-7, 3)), "-7/3"),
            (MultiPoly(2, {(1, 0): Fraction(-1), (0, 0): Fraction(1)}), "-l1 + 1"),
            (
                MultiPoly(3, {(0, 2, 1): Fraction(-12), (1, 0, 0): Fraction(5, 2)}),
                "-12*l2^2*l3 + (5/2)*l1",
            ),
            (MultiPoly(2, {(0, 1): Fraction(-1, 2), (1, 0): Fraction(1)}), "l1 - (1/2)*l2"),
            (UniPoly(), "0"),
            (UniPoly([0]), "0"),
            (UniPoly([-1]), "-1"),
            (UniPoly([Fraction(-1, 2)]), "-1/2"),
            (UniPoly([0, -1]), "-k"),
            (UniPoly([3, 0, -1]), "-k^2 + 3"),
            (UniPoly([Fraction(7, 4), 1]), "k + 7/4"),
            (UniPoly([0, Fraction(-3, 2), -10]), "-10k^2 - (3/2)k"),
        ],
    )
    def test_edge_cases(self, poly, text):
        assert poly.to_text() == text
        reference = multi_text if isinstance(poly, MultiPoly) else uni_text
        assert reference(poly) == text

    def test_volume_polynomials_of_the_corpus(self, prepare):
        for name in DELZANT_CORPUS:
            p = prepare(name)
            for poly in (p.vol.poly, p.boundary.poly, *p.boundary.per_facet):
                assert poly.to_text() == multi_text(poly)


# small and past 10^30, of either sign, and zero often enough to trail
_NUMERATORS = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-60, 60),
    st.integers(-(10**40), 10**40),
)
_DENOMINATORS = st.one_of(st.integers(-40, 40), st.integers(-(10**31), 10**31)).filter(bool)


def _assert_canonical(poly):
    assert poly.denominator >= 1
    assert gcd(poly.denominator, *poly.numerators) == 1
    assert not poly.numerators or poly.numerators[-1] != 0
    assert all(type(c) is int for c in (*poly.numerators, poly.denominator))


def _at(poly, k):
    """``poly.at(k)``, or None where it raises ValueError (no integer value)."""
    try:
        return poly.at(k)
    except ValueError:
        return None


class TestIntegerUniPolyMatchesReference:
    """The integer ``UniPoly`` against the Fraction-coefficient reference,
    built from the same numerators over the same denominator; the
    difference against a second such pair, ``others`` over
    ``other_denominator``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        numerators=st.lists(_NUMERATORS, max_size=6),
        trailing=st.integers(0, 2),
        shared=st.sampled_from([1, 2, 6, 720, 10**12]),
        denominator=_DENOMINATORS,
        m=st.integers(0, 5),
        x=st.fractions(min_value=-20, max_value=20, max_denominator=9),
        others=st.lists(_NUMERATORS, max_size=6),
        other_denominator=_DENOMINATORS,
    )
    @example(
        numerators=[], trailing=0, shared=1, denominator=1, m=0, x=Fraction(0),
        others=[], other_denominator=1,
    )
    @example(
        numerators=[0, 0], trailing=2, shared=6, denominator=-5, m=1, x=Fraction(3),
        others=[0, 3], other_denominator=10,
    )
    @example(  # integer-valued: -(k - 1)(k - 2)/2
        numerators=[4, -6, 2], trailing=1, shared=2, denominator=-4, m=2, x=Fraction(-1, 2),
        others=[1], other_denominator=3,
    )
    @example(  # (10^35 - k)/7 has no integer value at k = 2
        numerators=[10**35, -1], trailing=0, shared=10**12, denominator=7, m=3, x=Fraction(2),
        others=[5, 1], other_denominator=-7,
    )
    def test_every_reading(
        self, numerators, trailing, shared, denominator, m, x, others, other_denominator
    ):
        scaled = [c * shared for c in numerators] + [0] * trailing
        poly = UniPoly.over(scaled, denominator * shared)
        reference = FractionUniPoly(Fraction(c, denominator) for c in numerators)

        _assert_canonical(poly)
        assert poly.coeffs == reference.coeffs
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert poly.degree == reference.degree
        for power in range(-1, reference.degree + 2):
            assert poly.coefficient(power) == reference.coefficient(power)
        assert poly.to_text() == uni_text(reference)
        assert poly.evaluate(x) == reference.evaluate(x)
        k = int(x)
        assert _at(poly, k) == _at(reference, k)
        assert poly.reflected(m).coeffs == reference.reflected(m).coeffs
        _assert_canonical(poly.reflected(m))

        # differences: over unequal denominators, with poly itself (zero), and
        # with near = poly - other, whose top terms cancel poly's when other's
        # degree is lower
        other = UniPoly.over(others, other_denominator)
        other_reference = FractionUniPoly(Fraction(c, other_denominator) for c in others)
        near = reference - other_reference
        for subtrahend, by_reference in (
            (other, other_reference),
            (poly, reference),
            (UniPoly(near.coeffs), near),
        ):
            difference = poly - subtrahend
            _assert_canonical(difference)
            assert difference.coeffs == (reference - by_reference).coeffs

        # one stored form: every door to the same polynomial stores the same integers
        assert poly == UniPoly(reference.coeffs)
        assert poly == UniPoly.over(numerators, denominator)
        assert poly != poly - UniPoly([1])

    def test_the_zero_polynomial(self):
        for poly in (UniPoly(), UniPoly([0, 0]), UniPoly.over([0, 0, 0], -12)):
            assert (poly.numerators, poly.denominator) == ((), 1)
            assert poly == UniPoly()
            assert poly.to_text() == "0"
            assert poly.degree == -1
            assert poly.evaluate(Fraction(7, 3)) == 0

    def test_denominator_zero_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            UniPoly.over([1, 2], 0)

    def test_every_fit_of_the_corpus(self, prepare):
        """Every fit is a canonical ``UniPoly`` whose integers give the
        polynomial its Fractions give: every closed face's, and the interior
        and boundary read off the polytope's, against the reference's."""
        for name in DELZANT_CORPUS:
            p = prepare(name)
            m = p.spec.dim
            full = fit_face(p.histogram, p.face_counts, m)
            fits = [fit_face(p.histogram, p.face_counts, m, face) for face in p.lattice.faces]
            fits += [full.reflected(m), read_region("boundary", full, full.reflected(m))]
            for fit in fits:
                _assert_canonical(fit)
                coeffs = [Fraction(c, fit.denominator) for c in fit.numerators]
                assert fit == UniPoly(coeffs)
                assert fit.coeffs == FractionUniPoly(coeffs).coeffs
            reference = FractionUniPoly(full.coeffs)
            assert fits[-1].coeffs == (reference - reference.reflected(m)).coeffs


def test_unipoly_keeps_the_canonical_integers_of_the_given_fractions():
    half = Fraction(1, 2)
    poly = UniPoly([half, 2, Fraction(0)])
    assert (poly.numerators, poly.denominator) == ((1, 4), 2)
    shared = UniPoly.over([3, 12, 0], 6)
    assert (shared.numerators, shared.denominator) == ((1, 4), 2)
    assert shared == poly
    assert poly.coeffs == (half, Fraction(2))
    assert all(type(c) is Fraction for c in poly.coeffs)
