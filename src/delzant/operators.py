"""Todd and A-hat operator calculus on volume polynomials.

The lattice point count of a Delzant polytope equals the product of Todd
series in the offset derivatives applied to the volume polynomial and
evaluated at the anchor (Khovanskii's formula); the boundary point count
likewise comes from a product of A-hat series times one reciprocal A-hat
series in the summed derivative, applied to the boundary volume.  All
series act exactly: the targets are polynomials, so every operator expansion
terminates at the target's degree and truncation is a hard precondition,
never a tolerance.

Series conventions (coefficients of x^j):

    Td(x)      = x / (1 - exp(-x))      -> b_j / j!, Bernoulli numbers with b_1 = +1/2
    Ahat(x)    = (x/2) / sinh(x/2)      -> series inverse of invAhat
    invAhat(x) = sinh(x/2) / (x/2)      -> 1 / (2^(2j) (2j+1)!) in degree 2j
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial

from .counting import EhrhartPoly
from .errors import FormulaViolationError, TruncationError
from .polynomial import MultiPoly
from .volume import VolumePolynomial

SERIES_NAMES = ("Td", "Ahat", "invAhat")


def bernoulli_numbers(order: int) -> list[Fraction]:
    """B_0..B_order by the defining recurrence, with the B_1 = +1/2 convention."""
    if order < 0:
        raise ValueError("order must be >= 0")
    numbers: list[Fraction] = []
    for n in range(order + 1):
        acc = Fraction(n + 1)
        for j in range(n):
            acc -= comb(n + 1, j) * numbers[j]
        numbers.append(acc / (n + 1))
    return numbers


def series_multiply(a, b, order: int) -> list[Fraction]:
    """Cauchy product of two coefficient lists, truncated at the given order."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_invert(a, order: int) -> list[Fraction]:
    """Multiplicative inverse of a power series with nonzero constant term."""
    a0 = Fraction(a[0])
    if a0 == 0:
        raise ValueError("series has no inverse: constant term is zero")
    inv = [1 / a0]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            ai = Fraction(a[i]) if i < len(a) else Fraction(0)
            acc += ai * inv[n - i]
        inv.append(-acc / a0)
    return inv


def todd_denominator_series(order: int) -> list[Fraction]:
    """(1 - exp(-x)) / x, the reciprocal of Td; inversion oracle for tests."""
    return [Fraction((-1) ** n, factorial(n + 1)) for n in range(order + 1)]


@dataclass(frozen=True)
class SeriesSpec:
    name: str
    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def series_coefficients(name: str, order: int) -> SeriesSpec:
    if order < 0:
        raise ValueError("order must be >= 0")
    if name == "Td":
        bernoulli = bernoulli_numbers(order)
        coeffs = [bernoulli[j] / factorial(j) for j in range(order + 1)]
    elif name == "invAhat":
        coeffs = [
            Fraction(1, 2**j * factorial(j + 1)) if j % 2 == 0 else Fraction(0)
            for j in range(order + 1)
        ]
    elif name == "Ahat":
        coeffs = series_invert(series_coefficients("invAhat", order).coefficients, order)
    else:
        raise ValueError(f"unknown series {name!r}; expected one of {SERIES_NAMES}")
    return SeriesSpec(name=name, coefficients=tuple(coeffs))


@dataclass(frozen=True)
class OperatorProduct:
    """One series in each variable's derivative, times an optional series
    in the summed derivative.  Exact when truncation_order covers the
    degree of the target polynomial."""

    nvars: int
    per_variable: SeriesSpec
    sum_factor: SeriesSpec | None
    truncation_order: int


def todd_product(nvars: int, order: int) -> OperatorProduct:
    td = series_coefficients("Td", order)
    return OperatorProduct(
        nvars=nvars,
        per_variable=td,
        sum_factor=None,
        truncation_order=order,
    )


def boundary_operator_product(nvars: int, order: int) -> OperatorProduct:
    ahat = series_coefficients("Ahat", order)
    return OperatorProduct(
        nvars=nvars,
        per_variable=ahat,
        sum_factor=series_coefficients("invAhat", order),
        truncation_order=order,
    )


def _apply_single_variable(series: SeriesSpec, var: int, p: MultiPoly) -> MultiPoly:
    """sum_j s_j (d/do_var)^j p in one pass: x^e -> sum_j s_j e!/(e-j)! x^(e-j)."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms().items():
        e = exps[var]
        falling = coeff
        for j in range(min(e, series.order) + 1):
            s = series.coefficients[j]
            if s:
                key = exps[:var] + (e - j,) + exps[var + 1 :]
                out[key] = out.get(key, 0) + s * falling
            falling *= e - j
    return MultiPoly(p.nvars, out)


def _apply_sum_factor(series: SeriesSpec, p: MultiPoly) -> MultiPoly:
    """sum_j s_j D^j p for the summed derivative D, in one pass.

    D^j x^e = j! sum over f <= e with |f| = j of prod_i C(e_i, f_i) x^(e-f),
    so each term spreads over its sub-exponents f at once.
    """
    weights = [c * factorial(j) for j, c in enumerate(series.coefficients)]
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms().items():
        support = [i for i, e in enumerate(exps) if e]
        for picks in product(*(range(exps[i] + 1) for i in support)):
            j = sum(picks)
            if j > series.order or not weights[j]:
                continue
            key = list(exps)
            value = weights[j] * coeff
            for i, f in zip(support, picks):
                key[i] -= f
                value *= comb(exps[i], f)
            key = tuple(key)
            out[key] = out.get(key, 0) + value
    return MultiPoly(p.nvars, out)


def apply_operator_product(op: OperatorProduct, p: MultiPoly) -> MultiPoly:
    """Expand the operator product against a polynomial, exactly.

    The factors commute, so they are applied one variable at a time with
    the sum factor last, each in one pass over the terms.  A truncation
    order below the target degree is an error rather than a silent cutoff.
    """
    if p.nvars != op.nvars:
        raise ValueError(f"operator is over {op.nvars} variables, polynomial over {p.nvars}")
    if op.truncation_order < p.total_degree:
        raise TruncationError(
            f"truncation order {op.truncation_order} is below the polynomial degree "
            f"{p.total_degree}; the expansion would be silently wrong"
        )
    for series in (op.per_variable, op.sum_factor):
        if series is not None and series.order < op.truncation_order:
            raise TruncationError(
                f"series {series.name} carries only order {series.order}, "
                f"needed {op.truncation_order}"
            )
    result = p
    for var in range(op.nvars):
        result = _apply_single_variable(op.per_variable, var, result)
    if op.sum_factor is not None:
        result = _apply_sum_factor(op.sum_factor, result)
    return result


_COUNT_NAMES = {"full": "Todd operator count", "boundary": "A-hat boundary count"}


def applied_count(applied: MultiPoly, vol: VolumePolynomial, kind: str) -> int:
    """The lattice point count: the applied polynomial at the anchor offsets."""
    value = applied.evaluate(vol.anchor)
    if value.denominator != 1 or value < 0:
        raise FormulaViolationError(
            f"{_COUNT_NAMES[kind]} evaluated to {value}, not a nonnegative integer; "
            f"operator-applied polynomial {applied.to_text()} at {vol.anchor}"
        )
    return int(value)


def applied_ehrhart(applied: MultiPoly, vol: VolumePolynomial, kind: str) -> EhrhartPoly:
    """The Ehrhart polynomial: substitute offsets -> k * anchor."""
    return EhrhartPoly(poly=applied.substitute_dilation(vol.anchor), kind=kind)


def khovanskii_count(prep) -> int:
    """Lattice point count of a ``Prepared`` polytope via the Todd operator
    product on the volume."""
    return applied_count(prep.applied("full"), prep.vol, "full")


def boundary_count_formula(prep) -> int:
    """Boundary lattice point count via the A-hat operator product."""
    return applied_count(prep.applied("boundary"), prep.vol, "boundary")


def symbolic_ehrhart(prep, kind: str) -> EhrhartPoly:
    """Ehrhart polynomial via operators: apply, then substitute offsets -> k * anchor."""
    return applied_ehrhart(prep.applied(kind), prep.vol, kind)
