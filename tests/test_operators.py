import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import delzant.operators as operators
from delzant.corpus import DELZANT_CORPUS, load
from delzant.counting import count_points, ehrhart_interpolate
from delzant.errors import DisagreementError, FormulaViolationError
from delzant.hilbert import cy_hilbert_polynomial
from delzant.operators import (
    apply_operator_product,
    bernoulli_numbers,
    operator_count,
    series_coefficients,
    series_invert,
    series_multiply,
    symbolic_ehrhart,
    todd_denominator_series,
)
from delzant.polyfile import parse_polytope_file
from delzant.polynomial import MultiPoly
from delzant.prepared import Prepared

from test_polynomial import random_poly
from test_polytope import _blow_up
from test_volume import product_spec

DATA = Path(__file__).parent / "data"


def ones(order):
    return [Fraction(1)] + [Fraction(0)] * order


class TestSeriesCoefficients:
    def test_todd_low_order(self):
        td = series_coefficients("Td", 4)
        assert list(td) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]

    def test_todd_order_six(self):
        td = series_coefficients("Td", 6)
        assert td[5] == 0
        assert td[6] == Fraction(1, 30240)

    def test_todd_matches_inversion_oracle(self):
        # two independent routes to the same constants: the Bernoulli
        # recurrence and power series inversion of (1 - exp(-x))/x
        recurrence = series_coefficients("Td", 10)
        inverted = series_invert(todd_denominator_series(10), 10)
        assert list(recurrence) == inverted

    def test_todd_odd_coefficients_vanish(self):
        td = series_coefficients("Td", 11)
        for j in range(3, 12, 2):
            assert td[j] == 0

    def test_inv_ahat_closed_form(self):
        inv = series_coefficients("invAhat", 10)
        assert list(inv[:5]) == [
            Fraction(1),
            Fraction(0),
            Fraction(1, 24),
            Fraction(0),
            Fraction(1, 1920),
        ]
        for j in range(1, 6):
            assert inv[2 * j - 1] == 0
            assert inv[2 * j] == Fraction(
                1, 2 ** (2 * j) * factorial(2 * j + 1)
            )

    def test_ahat_from_inversion(self):
        ahat = series_coefficients("Ahat", 4)
        assert list(ahat) == [
            Fraction(1),
            Fraction(0),
            Fraction(-1, 24),
            Fraction(0),
            Fraction(7, 5760),
        ]

    def test_reciprocal_products_are_one(self):
        td = series_coefficients("Td", 10)
        assert series_multiply(td, todd_denominator_series(10), 10) == ones(10)
        ahat = series_coefficients("Ahat", 10)
        inv = series_coefficients("invAhat", 10)
        assert series_multiply(ahat, inv, 10) == ones(10)

    def test_unknown_series(self):
        with pytest.raises(ValueError):
            series_coefficients("Chern", 3)

    def test_bernoulli_values(self):
        assert bernoulli_numbers(8) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
            Fraction(0),
            Fraction(1, 42),
            Fraction(0),
            Fraction(-1, 30),
        ]


def symmetric_power(nvars, power, scale):
    s = MultiPoly.zero(nvars)
    for i in range(nvars):
        s = s + MultiPoly.variable(nvars, i)
    out = MultiPoly.constant(nvars, 1)
    for _ in range(power):
        out = out * s
    return out * scale


class TestApplyOperatorProduct:
    def test_todd_on_simplex_volume(self):
        # hand expansion: three 1/2 first-order terms, three 1/4 mixed
        # second-order terms, three 1/12 pure second-order terms
        vol = symmetric_power(3, 2, Fraction(1, 2))
        applied = apply_operator_product("full", vol)
        expected = vol + symmetric_power(3, 1, Fraction(3, 2)) + 1
        assert applied == expected

    def test_zero_polynomial(self):
        applied = apply_operator_product("full", MultiPoly.zero(2))
        assert applied.is_zero()

    def test_segment_family(self):
        p = symmetric_power(2, 1, 1)
        applied = apply_operator_product("full", p)
        assert applied == p + 1

    def test_linearity(self):
        rng = random.Random(19)
        for _ in range(15):
            p = random_poly(rng)
            q = random_poly(rng)
            assert apply_operator_product("boundary", p + q) == apply_operator_product(
                "boundary", p
            ) + apply_operator_product("boundary", q)

    def test_variable_count_mismatch(self):
        # the operator takes its variables from the polynomial; only the kind can be wrong
        with pytest.raises(ValueError, match="unknown kind"):
            apply_operator_product("interior", MultiPoly.constant(3, 1))


class TestKhovanskiiCount:
    @pytest.mark.parametrize(
        "name,expected",
        [("simplex_2", 3), ("segment_unit", 2), ("square_unit", 4)],
    )
    def test_hand_examples(self, name, expected, prepare):
        p = prepare(name)
        assert operator_count(p, "full") == expected

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_brute_force_corpus_wide(self, name, prepare):
        p = prepare(name)
        assert operator_count(p, "full") == count_points(
            p.spec, 1, "full", charts=p.charts
        )


class TestBoundaryCountFormula:
    @pytest.mark.parametrize(
        "name,expected",
        [("simplex_2", 3), ("square_unit", 4), ("simplex_3", 4)],
    )
    def test_hand_examples(self, name, expected, prepare):
        p = prepare(name)
        assert operator_count(p, "boundary") == expected

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_brute_force_corpus_wide(self, name, prepare):
        p = prepare(name)
        assert operator_count(p, "boundary") == count_points(
            p.spec, 1, "boundary", charts=p.charts
        )


class TestSymbolicEhrhart:
    def test_simplex_full(self, prepare):
        p = prepare("simplex_2")
        result = symbolic_ehrhart(p, "full")
        assert result.coeffs == (1, Fraction(3, 2), Fraction(1, 2))

    def test_simplex3_boundary(self, prepare):
        p = prepare("simplex_3")
        result = symbolic_ehrhart(p, "boundary")
        assert result.coeffs == (2, 0, 2)

    def test_simplex4_boundary(self, prepare):
        p = prepare("simplex_4")
        result = symbolic_ehrhart(p, "boundary")
        assert result.coeffs == (0, Fraction(25, 6), 0, Fraction(5, 6))

    def test_unknown_kind(self, prepare):
        p = prepare("simplex_2")
        with pytest.raises(ValueError):
            symbolic_ehrhart(p, "interior")

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("kind", ["full", "boundary"])
    def test_matches_interpolation_corpus_wide(self, name, kind, prepare):
        p = prepare(name)
        via_operator = symbolic_ehrhart(p, kind)
        via_counts = ehrhart_interpolate(p.spec, kind, charts=p.charts)
        assert via_operator == via_counts


class TestVertexSum:
    """``symbolic_ehrhart`` sums one univariate series per vertex.  The
    expansion route applies the operator product to the d-variable volume
    (full) or boundary volume (boundary) and substitutes offsets -> k anchor;
    the two must give the same polynomial, and the operator counts, which
    read the expansion at the anchor, its value at k = 1.  This keeps the
    operator identity on the volume polynomial checked."""

    @staticmethod
    def assert_routes_agree(prep):
        for kind in ("full", "boundary"):
            by_vertex = symbolic_ehrhart(prep, kind)
            assert prep.applied(kind).substitute_dilation(prep.spec.offsets()) == by_vertex
            assert operator_count(prep, kind) == by_vertex.evaluate(1)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_corpus(self, name, prepare):
        self.assert_routes_agree(prepare(name))

    def test_blow_ups_and_products(self):
        @settings(derandomize=True, max_examples=40, deadline=None)
        @given(
            name=st.sampled_from(DELZANT_CORPUS),
            factor=st.sampled_from((None, "segment_unit", "simplex_2", "hirzebruch_b")),
            cuts=st.sets(st.integers(0, 8), max_size=3),
        )
        def check(name, factor, cuts):
            spec = load(name)
            if factor is not None:
                spec = product_spec(spec, load(factor))
            assume(spec.dim <= 5)
            self.assert_routes_agree(Prepared(_blow_up(spec, cuts)).require_delzant())

        check()

    def test_blow_up_fixture(self):
        # a 5-cube of side 40 with 12 vertices cut off: d = 22, 80 vertices
        spec = parse_polytope_file((DATA / "cube5_blowup12.poly").read_text())
        self.assert_routes_agree(Prepared(spec))


def _corrupt_bernoulli(monkeypatch):
    """B_2 read as 1/7; its true value is 1/6."""
    good = bernoulli_numbers(8)

    def corrupted(order):
        values = good[: order + 1]
        if order >= 2:
            values[2] = Fraction(1, 7)
        return values

    monkeypatch.setattr(operators, "bernoulli_numbers", corrupted)


def _corrupt_x2(monkeypatch, name, value):
    """The named series' x^2 coefficient read as ``value``.  A-hat is the
    series inverse of invAhat, so a corrupted invAhat corrupts it too, as a
    wrong constant in ``series_coefficients`` would."""

    def corrupted(series, order):
        coeffs = list(series_coefficients(series, order))
        if series == name and order >= 2:
            coeffs[2] = value
        return tuple(coeffs)

    monkeypatch.setattr(operators, "series_coefficients", corrupted)


class TestMutation:
    """Corrupting a series constant must break the executable theorems.

    The Todd route feeds the full-count identity and the A-hat route the
    boundary identity, both by the expansion and by the vertex sum; the
    inclusion-exclusion identity uses no series constants at all, by
    construction, so no mutation can reach it.
    """

    def test_corrupt_bernoulli_breaks_khovanskii(self, monkeypatch):
        p = Prepared(load("simplex_2"))  # its own pipeline, built under the mutation
        _corrupt_bernoulli(monkeypatch)
        brute = count_points(p.spec, 1, "full", charts=p.charts)
        try:
            value = operator_count(p, "full")
        except FormulaViolationError:
            return  # non-integer output: the corruption was caught
        assert value != brute

    def test_corrupt_ahat_breaks_boundary_formula(self, monkeypatch):
        p = Prepared(load("simplex_3"))  # its own pipeline, built under the mutation
        _corrupt_x2(monkeypatch, "Ahat", Fraction(-1, 23))  # true value is -1/24
        brute = count_points(p.spec, 1, "boundary", charts=p.charts)
        try:
            value = operator_count(p, "boundary")
        except FormulaViolationError:
            return
        assert value != brute

    @pytest.mark.parametrize(
        "corrupt, kind",
        [
            (_corrupt_bernoulli, "full"),
            (lambda mp: _corrupt_x2(mp, "Ahat", Fraction(-1, 23)), "boundary"),
            (lambda mp: _corrupt_x2(mp, "invAhat", Fraction(1, 25)), "boundary"),
        ],
        ids=["bernoulli-B2", "ahat-x2", "inv-ahat-x2"],
    )
    def test_corruption_breaks_the_vertex_sum(self, monkeypatch, corrupt, kind):
        """The Ehrhart polynomial no longer matches the fitted counts, and
        route (b) of ``cy_hilbert_polynomial``, which reads the boundary
        kind, disagrees with the other two."""
        p = Prepared(load("simplex_3"))
        corrupt(monkeypatch)
        assert symbolic_ehrhart(p, kind) != ehrhart_interpolate(p.spec, kind, charts=p.charts)
        if kind == "boundary":
            with pytest.raises(DisagreementError):
                cy_hilbert_polynomial(p)
