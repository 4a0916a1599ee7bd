"""A univariate polynomial kept as Fraction coefficients.

The reference that ``delzant.polynomial.UniPoly``, which keeps integer
numerators over one denominator, is compared against.  Each coefficient
is a Fraction, lowest power first, with no trailing zero; every method
works on the Fractions alone.
"""

from fractions import Fraction


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

    def reflected(self, m: int) -> "FractionUniPoly":
        """(-1)^m p(-k)."""
        return FractionUniPoly((-1) ** (m + i) * c for i, c in enumerate(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionUniPoly) and self.coeffs == other.coeffs
