"""A univariate polynomial kept as Fraction coefficients.

The reference that ``delzant.polynomial.UniPoly``, which keeps integer
numerators over one denominator, is compared against.  Each coefficient
is a Fraction, lowest power first, with no trailing zero; every method
works on the Fractions alone.  It also keeps the ring operations and the
Lagrange interpolation that the package's ``UniPoly`` has no use for:
``interpolate`` is the reference every integer fit is compared with.
"""

from fractions import Fraction
from itertools import zip_longest


class FractionUniPoly:
    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else Fraction(0)

    def evaluate(self, x) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * Fraction(x) + c
        return total

    def at(self, k: int) -> int:
        """The value at the integer k; ValueError if it is not an integer."""
        value = self.evaluate(k)
        if value.denominator != 1:
            raise ValueError(f"no integer value at k={k}")
        return value.numerator

    def reflected(self, m: int) -> "FractionUniPoly":
        """(-1)^m p(-k)."""
        return FractionUniPoly((-1) ** (m + i) * c for i, c in enumerate(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionUniPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "FractionUniPoly") -> "FractionUniPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return FractionUniPoly(a + b for a, b in pairs)

    def __sub__(self, other: "FractionUniPoly") -> "FractionUniPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return FractionUniPoly(a - b for a, b in pairs)

    def __mul__(self, other) -> "FractionUniPoly":
        if not isinstance(other, FractionUniPoly):
            return FractionUniPoly(c * Fraction(other) for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionUniPoly(out)

    @classmethod
    def interpolate(cls, points) -> "FractionUniPoly":
        """The unique polynomial of degree < len(points) through the given
        points, by Lagrange's formula."""
        xs = [Fraction(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        result = cls()
        for i, (_, y) in enumerate(points):
            basis, denom = cls([1]), Fraction(1)
            for j, xj in enumerate(xs):
                if j != i:
                    basis = basis * cls([-xj, 1])
                    denom *= xs[i] - xj
            result = result + basis * (Fraction(y) / denom)
        return result
