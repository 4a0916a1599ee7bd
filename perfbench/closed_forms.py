"""Closed-form answers for generated inputs, computed without the program.

Polynomials in the dilation k are dicts {power: Fraction}.  A product of
scaled unit simplices (dim m, scale s) has

    full(k)     = prod C(s k + m, m)
    interior(k) = prod C(s k - 1, m)
    face(k)     = prod C(s k + m - r, m - r)   (r facets of that factor fixed)

so boxes give prod(k a_i + 1) and the unit m-simplex gives C(k + m, m).
A lattice polygon with twice-area A2 and B boundary points follows Pick:
full = (A2/2) k^2 + (B/2) k + 1 and interior = (A2/2) k^2 - (B/2) k + 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

from generator import Shape


def _mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {p: c for p, c in out.items() if c != 0}


def _sub(a, b):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) - c
    return {p: c for p, c in out.items() if c != 0}


def _binom(s: int, a: int, m: int):
    """C(s k + a, m) as a polynomial in k."""
    poly = {0: Fraction(1)}
    for j in range(1, m + 1):
        poly = _mul(poly, {1: Fraction(s, j), 0: Fraction(a - j + 1, j)})
    return poly


def evaluate(poly, k) -> Fraction:
    return sum((c * Fraction(k) ** p for p, c in poly.items()), Fraction(0))


def _factors(shape: Shape):
    start = 0
    for m, s in shape.simplices:
        yield m, s, range(start, start + m + 1)
        start += m + 1


def ehrhart(shape: Shape, kind: str, face=()):
    """Closed-form Ehrhart polynomial of kind full, interior, boundary or face."""
    if kind == "boundary":
        return _sub(ehrhart(shape, "full"), ehrhart(shape, "interior"))
    if shape.polygon_edges:
        area, half_b = Fraction(shape.polygon_area2, 2), Fraction(sum(shape.polygon_edges), 2)
        if kind == "full":
            return {2: area, 1: half_b, 0: Fraction(1)}
        if kind == "interior":
            return {2: area, 1: -half_b, 0: Fraction(1)}
        if len(face) == 1:
            return {1: Fraction(shape.polygon_edges[face[0]]), 0: Fraction(1)}
        return {0: Fraction(1)}  # a vertex (only faces are ever asked for)
    poly = {0: Fraction(1)}
    for m, s, facets in _factors(shape):
        if kind == "interior":
            factor = _binom(s, -1, m)
        else:
            r = sum(1 for i in face if i in facets)
            factor = _binom(s, m - r, m - r) if r <= m else {}
        poly = _mul(poly, factor)
    return poly


def volume(shape: Shape) -> Fraction:
    if shape.polygon_edges:
        return Fraction(shape.polygon_area2, 2)
    out = Fraction(1)
    for m, s in shape.simplices:
        out *= Fraction(s**m, factorial(m))
    return out


def boundary_volume(shape: Shape) -> Fraction:
    """Sum of the offset derivatives of the volume at the anchor, i.e. the
    lattice-normalised facet volumes: a scaled m-simplex factor contributes
    (m + 1) s^(m-1) / (m-1)! times the volume of the other factors."""
    if shape.polygon_edges:
        return Fraction(sum(shape.polygon_edges))
    total = Fraction(0)
    for i, (m, s) in enumerate(shape.simplices):
        term = Fraction((m + 1) * s ** (m - 1), factorial(m - 1))
        for j, (mj, sj) in enumerate(shape.simplices):
            if j != i:
                term *= Fraction(sj**mj, factorial(mj))
        total += term
    return total


_TERM = re.compile(r"^(?:\((\d+)/(\d+)\)|(\d+))?(k(?:\^(\d+))?)?$")


def parse_kpoly(text: str):
    """Parse the program's text for a polynomial in k, e.g. '(5/6)k^3 + (25/6)k'."""
    if text == "0":
        return {}
    tokens = text.replace(" - ", " + -").split(" + ")
    poly = {}
    for token in tokens:
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("-")
        match = _TERM.match(body)
        if match is None or not body:
            raise ValueError(f"cannot parse term {token!r} of {text!r}")
        num, den, whole, mono, power = match.groups()
        coeff = Fraction(int(num), int(den)) if num else Fraction(int(whole or 1))
        exponent = (int(power) if power else 1) if mono else 0
        poly[exponent] = sign * coeff
    return poly
