"""Exact sparse polynomial arithmetic over the rationals.

A multivariate polynomial is a dictionary mapping exponent tuples (one
nonnegative integer per variable) to nonzero Fraction coefficients; the
zero polynomial is the empty dictionary.  Rational scalars are stdlib
``fractions.Fraction`` values, which are always reduced, keep a positive
denominator, and print canonically as ``p/q`` (or ``p`` when q = 1).

Terms are ordered graded-lexicographically (total degree first, then the
exponent tuple) whenever a canonical sequence is needed, e.g. for text
serialization.  Arithmetic itself is order-free.

Where Fractions are built: ``MultiPoly``'s ring operations work on
Fractions, but the hot producers hand in finished ones, each built once
from integers (the volume's Lawrence sum and its derivatives in
``volume``), and ``MultiPoly`` keeps a Fraction as given.  ``UniPoly``, the
one type of every polynomial in k, keeps integers: numerators over one
denominator, in one canonical form, returned as integers by every fit in
``counting`` and the vertex sum in ``operators`` (``UniPoly.over``).  It
compares, reflects, subtracts, evaluates at an integer (``at``) and
prints its integers, with one Horner loop (``scaled``), and builds
Fractions only when ``coeffs`` or ``coefficient`` is read or for one
rational value (``evaluate``).  It has no sum or product: no stage of the
package adds or multiplies two polynomials in k.  ``MultiPoly``'s evaluation
(``_by_degree``) works on integer numerators over one denominator and
builds one Fraction per value.  Printing (``_format_term``) reads each
coefficient as a reduced numerator and denominator, with no Fraction
arithmetic, comparison or ``str``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


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
        terms = self._terms
        ranked = sorted(zip(map(sum, terms), terms), reverse=True)
        return [(exps, terms[exps]) for _, exps in ranked]

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
        return UniPoly.over([by_degree.get(i, 0) for i in range(top + 1)], denominator)

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
        terms = self.canonical_terms()
        # powers[i][e] is the text of l_{i+1}^e, and "" for e = 0
        top = sum(terms[0][0])
        powers = [
            ["", f"l{i + 1}", *(f"l{i + 1}^{e}" for e in range(2, top + 1))]
            for i in range(self.nvars)
        ]
        parts: list[str] = []
        for exps, coeff in terms:
            mono = "*".join(filter(None, map(list.__getitem__, powers, exps)))
            parts.append(_format_term(coeff.numerator, coeff.denominator, mono, first=not parts))
        return "".join(parts)


def _format_term(n: int, d: int, mono: str, first: bool, sep: str = "*") -> str:
    """One term of a text form, its coefficient the reduced n/d, d > 0:
    it prints as ``str(Fraction(n, d))`` does (``n/d``, or ``n`` when d = 1)."""
    sign = "+"
    if n < 0:
        sign, n = "-", -n
    if d != 1:
        mag = f"{n}/{d}"
        body = f"({mag}){sep}{mono}" if mono else mag
    elif mono:
        body = mono if n == 1 else f"{n}{sep}{mono}"
    else:
        body = f"{n}"
    if first:
        return body if sign == "+" else "-" + body
    return f" {sign} {body}"


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored in one form: integer ``numerators``, lowest power first and
    with no trailing zero, over one ``denominator`` >= 1 that shares no
    factor with all of them (the zero polynomial is no numerators over 1).
    So two equal polynomials store the same integers.  ``over`` takes
    integers, ``UniPoly(coeffs)`` ints or Fractions, brought over their
    lcm; ``coeffs`` builds the reduced Fractions on read.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        common = lcm(*(c.denominator for c in cs))
        self._reduce([c.numerator * (common // c.denominator) for c in cs], common)

    @classmethod
    def over(cls, numerators: Sequence[int], denominator: int) -> "UniPoly":
        """The polynomial whose coefficient of k^i is numerators[i] / denominator."""
        poly = cls.__new__(cls)
        poly._reduce(numerators, denominator)
        return poly

    def _reduce(self, numerators: Sequence[int], denominator: int) -> None:
        """Store the canonical form: trailing zeros dropped, and one gcd
        divided out, negated if the denominator is negative."""
        if not denominator:
            raise ZeroDivisionError("UniPoly over the denominator 0")
        n = len(numerators)
        while n and not numerators[n - 1]:
            n -= 1
        g = gcd(denominator, *numerators)
        if denominator < 0:
            g = -g
        self.numerators = tuple([c // g for c in numerators[:n]])
        self.denominator = denominator // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, lowest power first, as reduced Fractions."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.numerators):
            return Fraction(self.numerators[power], self.denominator)
        return Fraction(0)

    def scaled(self, p: int, q: int = 1) -> int:
        """The denominator times q^n times the value at x = p/q, n the
        degree: the sum of numerator_i p^i q^(n-i), by Horner's rule on
        integers.  The one evaluation loop, read by ``evaluate`` and ``at``."""
        total, scale = 0, 1
        for c in reversed(self.numerators):
            total = total * p + c * scale
            scale *= q
        return total

    def evaluate(self, x) -> Fraction:
        """The value at x = p/q: ``scaled`` over the denominator times q^n."""
        x = Fraction(x)
        q = x.denominator
        return Fraction(self.scaled(x.numerator, q), self.denominator * q ** max(self.degree, 0))

    def at(self, k: int) -> int:
        """The exact integer value at the integer k; ValueError if the
        value there is not an integer."""
        value, rest = divmod(self.scaled(k), self.denominator)
        if rest:
            raise ValueError(f"{self.to_text()} takes no integer value at k={k}")
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.numerators == other.numerators
            and self.denominator == other.denominator
        )

    __hash__ = None

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        """The difference, in integers over the lcm of the two denominators."""
        common = lcm(self.denominator, other.denominator)
        a, b = common // self.denominator, common // other.denominator
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return UniPoly.over([a * x - b * y for x, y in pairs], common)

    def reflected(self, m: int) -> "UniPoly":
        """(-1)^m p(-k): the coefficient of k^i weighted by (-1)^(m+i).  Of
        a dim-m polytope's Ehrhart polynomial, its interior's (Ehrhart-
        Macdonald reciprocity).  The numerators weighted, over the same
        denominator."""
        return UniPoly.over(
            [(-1) ** (m + i) * c for i, c in enumerate(self.numerators)], self.denominator
        )

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"

    def to_text(self) -> str:
        """Descending-power text form, e.g. ``2k^2 + 2`` or ``(5/6)k^3 + (25/6)k``:
        each coefficient reduced by one integer gcd, with no Fraction built."""
        if not self.numerators:
            return "0"
        denominator = self.denominator
        parts: list[str] = []
        for power in range(len(self.numerators) - 1, -1, -1):
            n = self.numerators[power]
            if not n:
                continue
            if power == 0:
                mono = ""
            elif power == 1:
                mono = "k"
            else:
                mono = f"k^{power}"
            g = gcd(n, denominator)
            parts.append(_format_term(n // g, denominator // g, mono, first=not parts, sep=""))
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
