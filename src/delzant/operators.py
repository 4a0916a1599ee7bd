"""Todd and A-hat operator calculus on volume polynomials.

The lattice point count of a Delzant polytope equals the product of Todd
series in the offset derivatives applied to the volume polynomial and
evaluated at the anchor (Khovanskii's formula); the boundary point count
likewise comes from a product of A-hat series times one reciprocal A-hat
series in the summed derivative, applied to the boundary volume.  All
series act exactly: the targets are polynomials, and each series is
expanded to the target's degree, past which every derivative of the
target vanishes.

Two routes apply the operators.  ``symbolic_ehrhart`` reads the Ehrhart
polynomial off the vertices: the operator acts on each vertex's term of
the volume formula on its own, as one univariate series per vertex, and
builds no volume polynomial.  The interior's polynomial is read off the
Todd sum L as every interior count is, (-1)^m L(-k) (Ehrhart-Macdonald
reciprocity, ``UniPoly.reflected``), while the boundary's keeps its own
A-hat series: the boundary count L(k) - (-1)^m L(-k), the reading of
the Euler class [O_Z] = 1 - [K_M], is what that series checks.  ``apply_operator_product`` expands the
operator over a d-variable polynomial (``Prepared.applied``).  Its result
is printed as ``operator_applied``, and ``operator_count`` evaluates it at
the anchor, so the counts of ``khovanskii``, ``boundary-formula`` and
``cross-check`` still read the expansion.  Moving them to the vertex sum
waits on the benchmark's peak-RSS metric, which grows with the passes a
run makes (ROADMAP item 1a).  The tests check that the two routes give
the same polynomial, which keeps the operator identity on the volume
polynomial checked.

Series conventions (coefficients of x^j, b_j the Bernoulli numbers with
b_1 = +1/2):

    Td(x)      = x / (1 - exp(-x))      -> b_j / j!
    Ahat(x)    = (x/2) / sinh(x/2)      -> (2 - 2^j) b_j / (2^j j!), 0 for odd j
    invAhat(x) = sinh(x/2) / (x/2)      -> 1 / (2^(2j) (2j+1)!) in degree 2j

Each series has one closed form here; the tests check Td and Ahat
against a power series inversion of (1 - exp(-x))/x and of invAhat.
The Bernoulli numbers of each order are built once per process
(``_bernoulli_numbers``); the series are built afresh on each call, so
a test that replaces ``bernoulli_numbers`` or ``series_coefficients``
reaches both routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, lcm

from .errors import FormulaViolationError
from .polynomial import MultiPoly, UniPoly
from .volume import _lawrence_rows, _moment_direction

SERIES_NAMES = ("Td", "Ahat", "invAhat")

# kind -> (series in each variable's derivative, series in the summed derivative)
_PRODUCTS = {"full": ("Td", None), "boundary": ("Ahat", "invAhat")}


def bernoulli_numbers(order: int) -> list[Fraction]:
    """B_0..B_order, with the B_1 = +1/2 convention, as a fresh list."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return list(_bernoulli_numbers(order))


@cache
def _bernoulli_numbers(order: int) -> tuple[Fraction, ...]:
    """B_0..B_order by the defining recurrence; cached, each order is
    built once per process."""
    numbers: list[Fraction] = []
    for n in range(order + 1):
        acc = Fraction(n + 1)
        for j in range(n):
            acc -= comb(n + 1, j) * numbers[j]
        numbers.append(acc / (n + 1))
    return tuple(numbers)


def series_multiply(a, b, order: int) -> list:
    """Cauchy product of two coefficient lists, truncated at the given order.

    The accumulator starts at integer 0, so integer lists multiply in integers.
    """
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_coefficients(name: str, order: int) -> tuple[Fraction, ...]:
    """Coefficients of x^0..x^order of the named series."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if name == "Td":
        coeffs = [b / factorial(j) for j, b in enumerate(bernoulli_numbers(order))]
    elif name == "Ahat":
        # (x/2)/sinh(x/2) = sum_j (2 - 2^j) B_j x^j / (2^j j!), which vanishes
        # at every odd j: B_1 has 2 - 2^1 = 0, and the other odd B_j are 0
        coeffs = [
            (2 - 2**j) * b / (2**j * factorial(j))
            for j, b in enumerate(bernoulli_numbers(order))
        ]
    elif name == "invAhat":
        coeffs = [
            Fraction(1, 2**j * factorial(j + 1)) if j % 2 == 0 else Fraction(0)
            for j in range(order + 1)
        ]
    else:
        raise ValueError(f"unknown series {name!r}; expected one of {SERIES_NAMES}")
    return tuple(coeffs)


def _apply_single_variable(series, var: int, p: MultiPoly) -> MultiPoly:
    """sum_j s_j (d/do_var)^j p in one pass: x^e -> sum_j s_j e!/(e-j)! x^(e-j)."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms().items():
        e = exps[var]
        falling = coeff
        for j in range(e + 1):
            s = series[j]
            if s:
                key = exps[:var] + (e - j,) + exps[var + 1 :]
                out[key] = out.get(key, 0) + s * falling
            falling *= e - j
    return MultiPoly(p.nvars, out)


def _apply_sum_factor(series, p: MultiPoly) -> MultiPoly:
    """sum_j s_j D^j p for the summed derivative D, in one pass.

    D^j x^e = j! sum over f <= e with |f| = j of prod_i C(e_i, f_i) x^(e-f),
    so each term spreads over its sub-exponents f at once.
    """
    weights = [c * factorial(j) for j, c in enumerate(series)]
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms().items():
        support = [i for i, e in enumerate(exps) if e]
        for picks in product(*(range(exps[i] + 1) for i in support)):
            j = sum(picks)
            if not weights[j]:
                continue
            key = list(exps)
            value = weights[j] * coeff
            for i, f in zip(support, picks):
                key[i] -= f
                value *= comb(exps[i], f)
            key = tuple(key)
            out[key] = out.get(key, 0) + value
    return MultiPoly(p.nvars, out)


def apply_operator_product(kind: str, p: MultiPoly) -> MultiPoly:
    """The Todd (full) or A-hat (boundary) operator product applied to p, exactly.

    Each series is expanded to p's total degree.  The factors commute, so
    they are applied one variable at a time with the sum factor last, each
    in one pass over the terms.
    """
    if kind not in _PRODUCTS:
        raise ValueError(f"unknown kind {kind!r}; expected 'full' or 'boundary'")
    per_variable, summed = _PRODUCTS[kind]
    order = p.total_degree
    series = series_coefficients(per_variable, order)
    result = p
    for var in range(p.nvars):
        result = _apply_single_variable(series, var, result)
    if summed is not None:
        result = _apply_sum_factor(series_coefficients(summed, order), result)
    return result


_COUNT_NAMES = {"full": "Todd operator count", "boundary": "A-hat boundary count"}


def operator_count(prep, kind: str) -> int:
    """The lattice (full) or boundary point count of a ``Prepared`` polytope:
    its applied polynomial at the anchor offsets."""
    applied, anchor = prep.applied(kind), prep.spec.offsets()
    value = applied.evaluate(anchor)
    if value.denominator != 1 or value < 0:
        raise FormulaViolationError(
            f"{_COUNT_NAMES[kind]} evaluated to {value}, not a nonnegative integer; "
            f"operator-applied polynomial {applied.to_text()} at {anchor}"
        )
    return int(value)


def _integer_series(name: str, order: int) -> tuple[list[int], int]:
    """The named series as integer numerators over one denominator."""
    coeffs = series_coefficients(name, order)
    scale = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs], scale


def symbolic_ehrhart(prep, kind: str) -> UniPoly:
    """Ehrhart polynomial via operators, summed over the vertices.

    The volume is the Lawrence sum of one term s_v^m / (m! den_v) per
    vertex (``volume._lawrence_volume``), with s_v = sum_a C_a o_a over the
    active facets.  The operator is linear, so it acts on each term alone
    (Brion and Vergne, JAMS 10, 1997): there d/do_a is C_a d/ds_v, and the
    series of a facet off the vertex acts as its constant term 1.  So
    vertex v needs one univariate series t_v, truncated at x^m:

        full:     prod_a Td(C_a x)
        boundary: sigma x invAhat(sigma x) prod_a Ahat(C_a x),  sigma = sum_a C_a

    (the boundary volume is the summed derivative of the volume, which
    gives its factor sigma x).  At the offsets k anchor, s_v = k S_v, and
    the coefficient of k^n is sum_v t_{v,m-n} S_v^n / (n! den_v).  The
    series are integer numerators over one denominator per series, and the
    vertices' are summed over the lcm of the den_v; the polynomial is
    returned as those integers over one denominator, with no Fraction
    built.  The interior's polynomial is read off the
    full one by Ehrhart-Macdonald reciprocity, (-1)^m L(-k), as every
    interior count is, with no series of its own.
    """
    if kind == "interior":
        return symbolic_ehrhart(prep, "full").reflected(prep.spec.dim)
    if kind not in _PRODUCTS:
        raise ValueError(f"unknown kind {kind!r}; expected 'full', 'interior' or 'boundary'")
    charts, anchor = prep.require_delzant().charts, prep.spec.offsets()
    m = prep.spec.dim
    per_variable, summed = _PRODUCTS[kind]
    base, scale = _integer_series(per_variable, m)
    denominator = scale**m
    if summed is not None:
        summed_series, summed_scale = _integer_series(summed, m - 1)
        denominator *= summed_scale
    rows, common = _lawrence_rows(charts, _moment_direction(charts, m))
    numerators = [0] * (m + 1)
    scaled = {}  # pairing c -> the series at c x; the vertices share few pairings
    for active, pairings, den in rows:
        series = [1] + [0] * m
        for c in pairings:  # the factor first: its zero coefficients are skipped
            if c not in scaled:
                scaled[c] = [s * c**j for j, s in enumerate(base)]
            series = series_multiply(scaled[c], series, m)
        if summed is not None:
            sigma = sum(pairings)
            factor = [0] + [s * sigma ** (j + 1) for j, s in enumerate(summed_series)]
            series = series_multiply(factor, series, m)
        s_anchor = sum(c * anchor[a] for a, c in zip(active, pairings))
        power = common // den
        for n in range(m + 1):
            numerators[n] += series[m - n] * power
            power *= s_anchor
    top = factorial(m)  # k^n's numerator over m! rather than n!
    return UniPoly.over(
        [value * (top // factorial(n)) for n, value in enumerate(numerators)],
        common * denominator * top,
    )
