"""Power series inversion, the reference for ``delzant.operators``' series.

The package gives each of Td, Ahat and invAhat by one closed form (Td and
Ahat from the Bernoulli numbers, invAhat from sinh).  Here the reciprocal
of a series is built by the recurrence of its coefficients alone, so Td
is checked as the inverse of (1 - exp(-x))/x, and Ahat and invAhat as
each other's inverses, by code that shares nothing with theirs.
"""

from fractions import Fraction
from math import factorial


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
    """(1 - exp(-x)) / x, the reciprocal of Td."""
    return [Fraction((-1) ** n, factorial(n + 1)) for n in range(order + 1)]
