"""Exact sparse polynomial arithmetic over the rationals.

A multivariate polynomial is a dictionary mapping exponent tuples (one
nonnegative integer per variable) to nonzero Fraction coefficients; the
zero polynomial is the empty dictionary.  Rational scalars are stdlib
``fractions.Fraction`` values, which are always reduced, keep a positive
denominator, and print canonically as ``p/q`` (or ``p`` when q = 1).

Terms are ordered graded-lexicographically (total degree first, then the
exponent tuple) whenever a canonical sequence is needed, e.g. for text
serialization.  Arithmetic itself is order-free.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


def _grlex_key(exps: Exponent):
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int:
        """Maximal term degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=0)

    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def canonical_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms sorted graded-lex, largest first."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def coefficient(self, exps: Exponent) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MultiPoly[{self.nvars}]({self.to_text()})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly(self.nvars, {e: c * v for e, v in self._terms.items()})
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, values: Sequence) -> Fraction:
        """The value at ``values``: the per-degree sums of ``_by_degree``
        added as integers over their one denominator."""
        by_degree, denominator = self._by_degree(values)
        return Fraction(sum(by_degree.values()), denominator)

    def substitute_dilation(self, anchor: Sequence) -> "UniPoly":
        """Substitute variable i -> k * anchor[i]; returns a polynomial in k,
        whose coefficient of k^n is the degree-n part's value at the anchor."""
        by_degree, denominator = self._by_degree(anchor)
        top = max(by_degree, default=0)
        return UniPoly(Fraction(by_degree.get(i, 0), denominator) for i in range(top + 1))

    def _by_degree(self, values: Sequence) -> tuple[dict[int, int], int]:
        """Each degree's part evaluated at ``values``, as integer numerators
        over one common denominator: ({degree n: numerator}, denominator).

        With values[i] = p_i / q_i and t_i the top exponent of variable i,
        the table row of i holds p_i^e q_i^(t_i - e) for e = 0..t_i, so
        every term is an integer over L prod_i q_i^t_i, L the lcm of the
        coefficient denominators.
        """
        vals = [Fraction(v) for v in values]
        if len(vals) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(vals)}")
        tops = [max(column) for column in zip(*self._terms)]
        table = [
            [v.numerator**e * v.denominator ** (top - e) for e in range(top + 1)]
            for v, top in zip(vals, tops)
        ]
        common = lcm(*(c.denominator for c in self._terms.values()))
        denominator = common * prod(v.denominator**top for v, top in zip(vals, tops))
        by_degree: dict[int, int] = {}
        for exps, coeff in self._terms.items():
            term = coeff.numerator * (common // coeff.denominator)
            for row, e in zip(table, exps):
                term *= row[e]
            n = sum(exps)
            by_degree[n] = by_degree.get(n, 0) + term
        return by_degree, denominator

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``(1/2)*l1^2 + (3/2)*l1 + 1``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.canonical_terms():
            mono = "*".join(
                f"l{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            parts.append(_format_term(coeff, mono, first=not parts))
        return "".join(parts)


def _format_term(coeff: Fraction, mono: str, first: bool, sep: str = "*") -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    if mono:
        if mag == 1:
            body = mono
        elif mag.denominator == 1:
            body = f"{mag}{sep}{mono}"
        else:
            body = f"({mag}){sep}{mono}"
    else:
        body = str(mag)
    if first:
        return body if sign == "+" else "-" + body
    return f" {sign} {body}"


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = Fraction(other)
            return UniPoly([c * x for x in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"

    @classmethod
    def interpolate(cls, points: Sequence[tuple]) -> "UniPoly":
        """Unique polynomial of degree < len(points) through the given points."""
        xs = [Fraction(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        result = cls()
        for i, (_, y) in enumerate(points):
            y = Fraction(y)
            if y == 0:
                continue
            basis = cls([1])
            denom = Fraction(1)
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                basis = basis * cls([-xj, 1])
                denom *= xs[i] - xj
            result = result + basis * (y / denom)
        return result

    def to_text(self) -> str:
        """Descending-power text form, e.g. ``2k^2 + 2`` or ``(5/6)k^3 + (25/6)k``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            coeff = self.coeffs[power]
            if coeff == 0:
                continue
            if power == 0:
                mono = ""
            elif power == 1:
                mono = "k"
            else:
                mono = f"k^{power}"
            parts.append(_format_term(coeff, mono, first=not parts, sep=""))
        return "".join(parts)


def euler_expansion_levels(n: int) -> list[tuple[int, int, MultiPoly]]:
    """Per-level pieces of the alternating expansion of 1 - x1*...*xn.

    Level l carries sign (-1)^(l+1) and the sum over all size-l index sets I
    of prod_{i in I} (1 - x_i), fully expanded.
    """
    if not 1 <= n <= 12:
        raise ValueError("n must be between 1 and 12")
    ones = MultiPoly.constant(n, 1)
    complements = [ones - MultiPoly.variable(n, i) for i in range(n)]
    levels = []
    for size in range(1, n + 1):
        sign = -1 if size % 2 == 0 else 1
        total = MultiPoly.zero(n)
        for subset in combinations(range(n), size):
            prod = complements[subset[0]]
            for i in subset[1:]:
                prod = prod * complements[i]
            total = total + prod
        levels.append((size, sign, total))
    return levels


def euler_expansion_identity(n: int) -> bool:
    """Check 1 - prod(x_i) == sum_l (-1)^(l+1) sum_{|I|=l} prod_{i in I}(1 - x_i)."""
    levels = euler_expansion_levels(n)
    rhs = MultiPoly.zero(n)
    for _, sign, total in levels:
        rhs = rhs + total * sign
    product = MultiPoly(n, {(1,) * n: Fraction(1)})
    lhs = MultiPoly.constant(n, 1) - product
    return lhs == rhs
