"""The text forms of ``MultiPoly`` and ``UniPoly``, printed through Fraction.

The reference that ``delzant.polynomial``'s printers are compared
against.  Each coefficient's sign and magnitude are taken with Fraction
comparison and ``abs``, and the magnitude is printed by ``str``; the
package's printers read the numerator and the denominator as integers
instead.  Terms are ordered by an explicit graded-lex key.
"""

from fractions import Fraction


def format_term(coeff: Fraction, mono: str, first: bool, sep: str = "*") -> str:
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


def multi_text(poly) -> str:
    """``MultiPoly.to_text``: graded-lex, largest first, ``(1/2)*l1^2 + 1``."""
    terms = poly.terms()
    if not terms:
        return "0"
    parts: list[str] = []
    for exps in sorted(terms, key=lambda exps: (sum(exps), exps), reverse=True):
        mono = "*".join(
            f"l{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
        )
        parts.append(format_term(terms[exps], mono, first=not parts))
    return "".join(parts)


def uni_text(poly) -> str:
    """``UniPoly.to_text``: descending powers, ``(5/6)k^3 + (25/6)k``."""
    parts: list[str] = []
    for power in range(poly.degree, -1, -1):
        coeff = poly.coefficient(power)
        if coeff == 0:
            continue
        mono = "" if power == 0 else "k" if power == 1 else f"k^{power}"
        parts.append(format_term(coeff, mono, first=not parts, sep=""))
    return "".join(parts) or "0"
