import random
from fractions import Fraction
from math import factorial

import pytest

import delzant.operators as operators
from delzant.corpus import DELZANT_CORPUS, load
from delzant.counting import count_points, ehrhart_interpolate
from delzant.errors import FormulaViolationError, TruncationError
from delzant.operators import (
    OperatorProduct,
    apply_operator_product,
    bernoulli_numbers,
    boundary_count_formula,
    boundary_operator_product,
    khovanskii_count,
    series_coefficients,
    series_invert,
    series_multiply,
    symbolic_ehrhart,
    todd_denominator_series,
    todd_product,
)
from delzant.polynomial import MultiPoly
from delzant.prepared import Prepared

from test_polynomial import random_poly


def ones(order):
    return [Fraction(1)] + [Fraction(0)] * order


class TestSeriesCoefficients:
    def test_todd_low_order(self):
        td = series_coefficients("Td", 4)
        assert list(td.coefficients) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]

    def test_todd_order_six(self):
        td = series_coefficients("Td", 6)
        assert td.coefficients[5] == 0
        assert td.coefficients[6] == Fraction(1, 30240)

    def test_todd_matches_inversion_oracle(self):
        # two independent routes to the same constants: the Bernoulli
        # recurrence and power series inversion of (1 - exp(-x))/x
        recurrence = series_coefficients("Td", 10).coefficients
        inverted = series_invert(todd_denominator_series(10), 10)
        assert list(recurrence) == inverted

    def test_todd_odd_coefficients_vanish(self):
        td = series_coefficients("Td", 11)
        for j in range(3, 12, 2):
            assert td.coefficients[j] == 0

    def test_inv_ahat_closed_form(self):
        inv = series_coefficients("invAhat", 10)
        assert list(inv.coefficients[:5]) == [
            Fraction(1),
            Fraction(0),
            Fraction(1, 24),
            Fraction(0),
            Fraction(1, 1920),
        ]
        for j in range(1, 6):
            assert inv.coefficients[2 * j - 1] == 0
            assert inv.coefficients[2 * j] == Fraction(
                1, 2 ** (2 * j) * factorial(2 * j + 1)
            )

    def test_ahat_from_inversion(self):
        ahat = series_coefficients("Ahat", 4)
        assert list(ahat.coefficients) == [
            Fraction(1),
            Fraction(0),
            Fraction(-1, 24),
            Fraction(0),
            Fraction(7, 5760),
        ]

    def test_reciprocal_products_are_one(self):
        td = series_coefficients("Td", 10).coefficients
        assert series_multiply(td, todd_denominator_series(10), 10) == ones(10)
        ahat = series_coefficients("Ahat", 10).coefficients
        inv = series_coefficients("invAhat", 10).coefficients
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
        applied = apply_operator_product(todd_product(3, 2), vol)
        expected = vol + symmetric_power(3, 1, Fraction(3, 2)) + 1
        assert applied == expected

    def test_zero_polynomial(self):
        applied = apply_operator_product(todd_product(2, 3), MultiPoly.zero(2))
        assert applied.is_zero()

    def test_segment_family(self):
        p = symmetric_power(2, 1, 1)
        applied = apply_operator_product(todd_product(2, 1), p)
        assert applied == p + 1

    def test_truncation_error(self):
        vol = symmetric_power(3, 2, Fraction(1, 2))
        with pytest.raises(TruncationError):
            apply_operator_product(todd_product(3, 1), vol)

    def test_short_series_rejected(self):
        short = series_coefficients("Td", 1)
        op = OperatorProduct(
            nvars=2, per_variable=short, sum_factor=None,
            truncation_order=2,
        )
        p = symmetric_power(2, 2, 1)
        with pytest.raises(TruncationError):
            apply_operator_product(op, p)

    def test_linearity(self):
        rng = random.Random(19)
        op = boundary_operator_product(3, 8)
        for _ in range(15):
            p = random_poly(rng)
            q = random_poly(rng)
            assert apply_operator_product(op, p + q) == apply_operator_product(
                op, p
            ) + apply_operator_product(op, q)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator_product(todd_product(2, 2), MultiPoly.constant(3, 1))


class TestKhovanskiiCount:
    @pytest.mark.parametrize(
        "name,expected",
        [("simplex_2", 3), ("segment_unit", 2), ("square_unit", 4)],
    )
    def test_hand_examples(self, name, expected, prepare):
        p = prepare(name)
        assert khovanskii_count(p) == expected

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_brute_force_corpus_wide(self, name, prepare):
        p = prepare(name)
        assert khovanskii_count(p) == count_points(
            p.spec, 1, "full", charts=p.charts
        )


class TestBoundaryCountFormula:
    @pytest.mark.parametrize(
        "name,expected",
        [("simplex_2", 3), ("square_unit", 4), ("simplex_3", 4)],
    )
    def test_hand_examples(self, name, expected, prepare):
        p = prepare(name)
        assert boundary_count_formula(p) == expected

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_brute_force_corpus_wide(self, name, prepare):
        p = prepare(name)
        assert boundary_count_formula(p) == count_points(
            p.spec, 1, "boundary", charts=p.charts
        )


class TestSymbolicEhrhart:
    def test_simplex_full(self, prepare):
        p = prepare("simplex_2")
        result = symbolic_ehrhart(p, "full")
        assert result.poly.coeffs == (1, Fraction(3, 2), Fraction(1, 2))

    def test_simplex3_boundary(self, prepare):
        p = prepare("simplex_3")
        result = symbolic_ehrhart(p, "boundary")
        assert result.poly.coeffs == (2, 0, 2)

    def test_simplex4_boundary(self, prepare):
        p = prepare("simplex_4")
        result = symbolic_ehrhart(p, "boundary")
        assert result.poly.coeffs == (0, Fraction(25, 6), 0, Fraction(5, 6))

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
        assert via_operator.poly == via_counts.poly


class TestMutation:
    """Corrupting a series constant must break the executable theorems.

    The Todd route feeds the full-count identity and the A-hat route the
    boundary identity; the inclusion-exclusion identity uses no series
    constants at all, by construction, so no mutation can reach it.
    """

    def test_corrupt_bernoulli_breaks_khovanskii(self, monkeypatch):
        p = Prepared(load("simplex_2"))  # its own pipeline, built under the mutation
        good = bernoulli_numbers(8)

        def corrupted(order):
            values = good[: order + 1]
            if order >= 2:
                values[2] = Fraction(1, 7)  # true value is 1/6
            return values

        monkeypatch.setattr(operators, "bernoulli_numbers", corrupted)
        brute = count_points(p.spec, 1, "full", charts=p.charts)
        try:
            value = khovanskii_count(p)
        except FormulaViolationError:
            return  # non-integer output: the corruption was caught
        assert value != brute

    def test_corrupt_ahat_breaks_boundary_formula(self, monkeypatch):
        p = Prepared(load("simplex_3"))  # its own pipeline, built under the mutation
        good = series_coefficients("Ahat", 10)

        def corrupted(name, order):
            if name == "Ahat":
                coeffs = list(good.coefficients[: order + 1])
                if order >= 2:
                    coeffs[2] = Fraction(-1, 23)  # true value is -1/24
                return operators.SeriesSpec(name="Ahat", coefficients=tuple(coeffs))
            return series_coefficients(name, order)

        monkeypatch.setattr(operators, "series_coefficients", corrupted)
        brute = count_points(p.spec, 1, "boundary", charts=p.charts)
        try:
            value = boundary_count_formula(p)
        except FormulaViolationError:
            return
        assert value != brute
