"""Symbolic volume and boundary-volume polynomials of a polytope family.

The volume of the family Delta(o_1, ..., o_d) near the anchor offsets is a
single polynomial of degree m in the offsets, valid in the chamber of the
anchor.  It comes from the Lawrence/Brion vertex formula.  At a simple
vertex v with facet normal matrix N_v (rows n_a for a in the active set
A_v) the edges leave v along the columns of -N_v^{-1}; for a direction xi
orthogonal to no edge, with c = N_v^{-T} xi,

    vol(o) = (1/m!) sum_v (sum_{a in A_v} c_a o_a)^m / (|det N_v| prod_a c_a)

(Lawrence, "Polytope volume computation", Math. Comp. 1991; Brion 1988).
xi is the first point (1, b, b^2, ...) of the moment curve, b >= 2, with
every c_a nonzero; the sum does not depend on it.  Each power is expanded
by the multinomial theorem, and the vertex terms are summed as integers
over one shared denominator.

The boundary volume is the derivative sum over all offsets; per facet it
equals the Euclidean facet volume divided by the length of the primitive
facet normal.  The numeric oracle and the direct facet volumes share no
code with the vertex formula.  Both cone the anchor's face lattice into
simplices of vertex active sets (``_triangulate``, combinatorial, so one
triangulation serves every point of the chamber), place the vertices at
concrete coordinates and sum simplex determinants, computed by their own
fraction-free elimination (``_simplex_det``).  A facet's volume is read
off the pyramid over it from a vertex off the facet.  The oracle reads
only the spec and the anchor's incidence, and it is compared with the
polynomial on a principal lattice (``chamber_samples``), where agreement
proves the two equal on the whole chamber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm, prod

from .errors import ChamberCrossedError
from .polynomial import MultiPoly
from .polytope import (
    FaceLattice,
    HalfSpaceSpec,
    VertexChart,
    build_face_lattice,
    feasible_vertex_points,
)


@dataclass(frozen=True)
class VolumePolynomial:
    poly: MultiPoly
    anchor: tuple[int, ...]


@dataclass(frozen=True)
class BoundaryVolumePolynomial:
    poly: MultiPoly
    per_facet: tuple[MultiPoly, ...]


def _edge_pairings(chart: VertexChart, xi) -> list[Fraction]:
    """c = N_v^{-T} xi: one entry per active facet of the vertex."""
    m = len(xi)
    return [sum(chart.inverse[r][j] * xi[r] for r in range(m)) for j in range(m)]


def _moment_direction(charts, m: int) -> tuple[int, ...]:
    """(1, b, ..., b^(m-1)) for the least b >= 2 that pairs to nonzero everywhere.

    Each c_a is a nonzero polynomial in b of degree below m, so at most
    (m - 1) values of b fail per entry and the search ends.
    """
    b = 2
    while True:
        xi = tuple(b**r for r in range(m))
        if all(c != 0 for chart in charts for c in _edge_pairings(chart, xi)):
            return xi
        b += 1


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _compositions(total - first, parts - 1)
    ]


def _lawrence_volume(charts, nvars: int, xi) -> MultiPoly:
    """The vertex formula for direction xi, summed exactly.

    Per vertex, c is scaled to an integer vector C (the term is homogeneous
    of degree 0 in c), so the vertex contributes
    prod_a C_a^e_a / (prod_a e_a! * den_v) to the coefficient of o^e, with
    den_v = |det N_v| prod_a C_a.  Numerators are summed over the lcm of
    the den_v; only the final coefficients become Fractions.
    """
    m = len(xi)
    vertices = []
    for chart in charts:
        c = _edge_pairings(chart, xi)
        if any(x == 0 for x in c):
            raise ValueError(f"direction {xi} is orthogonal to an edge at {chart.anchor}")
        scale = lcm(*(x.denominator for x in c))
        pairings = [int(x * scale) for x in c]
        vertices.append((chart.active_set, pairings, abs(chart.det) * prod(pairings)))
    common = lcm(*(abs(den) for _, _, den in vertices))
    splits = _compositions(m, m)
    numerators: dict[tuple[int, ...], int] = {}
    for active, pairings, den in vertices:
        weight = common // den
        powers = [[c**e for e in range(m + 1)] for c in pairings]
        for split in splits:
            value = weight
            exps = [0] * nvars
            for j, e in enumerate(split):
                if e:
                    value *= powers[j][e]
                    exps[active[j]] = e
            key = tuple(exps)
            numerators[key] = numerators.get(key, 0) + value
    return MultiPoly(
        nvars,
        {
            exps: Fraction(value, common * prod(factorial(e) for e in exps))
            for exps, value in numerators.items()
            if value
        },
    )


def volume_polynomial(spec: HalfSpaceSpec, lattice: FaceLattice) -> VolumePolynomial:
    """Degree-m volume polynomial, valid in the chamber of the anchor offsets."""
    charts = lattice.faces[()].charts
    xi = _moment_direction(charts, spec.dim)
    poly = _lawrence_volume(charts, spec.num_facets, xi)
    return VolumePolynomial(poly=poly, anchor=spec.offsets())


def boundary_volume_polynomial(vol: VolumePolynomial) -> BoundaryVolumePolynomial:
    """Sum of the offset derivatives of the volume, kept per facet.

    A monomial that occurs in several facet derivatives is keyed by one
    shared exponent tuple in all of them.
    """
    nvars = vol.poly.nvars
    per_facet: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(nvars)]
    total: dict[tuple[int, ...], Fraction] = {}
    keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    for exps, coeff in vol.poly.terms().items():
        for i, e in enumerate(exps):
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                key = keys.setdefault(key, key)
                value = coeff * e
                per_facet[i][key] = value
                total[key] = total.get(key, 0) + value
    return BoundaryVolumePolynomial(
        poly=MultiPoly(nvars, total),
        per_facet=tuple(MultiPoly(nvars, terms) for terms in per_facet),
    )


def _triangulate(faces, key):
    """Recursive coning triangulation of the face with the given active set.

    ``faces`` maps active sets to face records (``dim`` and ``charts``).
    Each face is coned from its vertex with the least active set over its
    own faces that miss that vertex; any vertex would do, so the result
    is combinatorial and holds wherever the incidence is the anchor's.
    Returns tuples of dim+1 vertex active sets.
    """
    record = faces[key]
    dim, vertices = record.dim, [chart.active_set for chart in record.charts]
    if dim == 0:
        return [(vertices[0],)]
    base = min(vertices)
    simplices = []
    for j in sorted(set(i for v in vertices for i in v) - set(key)):
        child = tuple(sorted(key + (j,)))
        if child not in faces or j in base:
            continue
        for simplex in _triangulate(faces, child):
            simplices.append((base,) + simplex)
    return simplices


def _simplex_det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, for the oracle alone.

    The common denominator L of the entries is cleared and the integer
    matrix L rows is reduced by fraction-free elimination, each division
    exact, in O(n^3) steps; det(rows) = det(L rows) / L^n.  The charts'
    elimination in ``linalg`` is not used, so the oracle stays independent.
    """
    n = len(rows)
    den = lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for r in range(k + 1, n):
            f = a[r][k]
            a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    return Fraction(sign * prev, den**n)


def _cone_sum(simplices, coords) -> Fraction:
    """Sum of |det| over simplices of active sets; ``coords`` maps each to a point."""
    total = Fraction(0)
    for base, *rest in simplices:
        origin = coords[base]
        rows = [[x - o for x, o in zip(coords[v], origin)] for v in rest]
        total += abs(_simplex_det(rows))
    return total


def _incidence(points):
    return sorted(active for _, active in points)


def numeric_volume_at(prep, sample) -> Fraction:
    """Exact volume of a ``Prepared`` family at offsets in the anchor's chamber.

    Independent of the symbolic route: vertices are re-enumerated at the
    sample, the anchor's face lattice is triangulated, and the simplex
    volumes at the sample's vertices are summed with absolute values.
    Raises ChamberCrossedError when the vertex-facet incidence at the
    sample differs from the anchor's.
    """
    spec = prep.spec
    sample = tuple(Fraction(v) for v in sample)
    if len(sample) != spec.num_facets:
        raise ValueError(f"expected {spec.num_facets} offsets, got {len(sample)}")
    at_sample = feasible_vertex_points(spec.normals(), sample)
    if _incidence(at_sample) != sorted(chart.active_set for chart in prep.charts):
        raise ChamberCrossedError(
            "sample offsets lie outside the chamber of the anchor offsets"
        )
    faces = build_face_lattice(spec, prep.charts).faces
    coords = {active: point for point, active in at_sample}
    return _cone_sum(_triangulate(faces, ()), coords) / factorial(spec.dim)


def chamber_samples(prep) -> list[tuple[Fraction, ...]]:
    """The principal lattice anchor + alpha/q, |alpha| <= m, of a ``Prepared``.

    Its C(d+m, m) points (alpha in N^d) are unisolvent for degree <= m
    (Nicolaides, SIAM J. Numer. Anal. 1972; Chung and Yao, ibid. 1977), so
    a degree-m polynomial that matches the oracle on them is the volume on
    the chamber.  q doubles from 2 until the d corners anchor + m e_i / q
    keep the anchor's incidence; the chamber is convex (its walls are
    linear in the offsets), so then every point does.
    """
    spec = prep.spec
    d, m = spec.num_facets, spec.dim
    normals, anchor = spec.normals(), spec.offsets()
    reference = sorted(chart.active_set for chart in prep.charts)

    def shifted(alpha, q):
        return tuple(o + Fraction(a, q) for o, a in zip(anchor, alpha))

    corners = [tuple(m * (i == j) for j in range(d)) for i in range(d)]
    q = 2
    while any(
        _incidence(feasible_vertex_points(normals, shifted(c, q))) != reference
        for c in corners
    ):
        q *= 2
    # alpha_i counts the picks of i; the pick d is the slack m - |alpha|
    return [
        shifted([picks.count(i) for i in range(d)], q)
        for picks in combinations_with_replacement(range(d + 1), m)
    ]


def facet_volume_direct(spec: HalfSpaceSpec, lattice: FaceLattice, facet: int) -> Fraction:
    """Lattice-normalized (m-1)-volume of a facet, from first principles.

    The pyramid over facet i from a vertex v off it has m-volume
    h vol(F) / m, where vol(F) is the lattice-normalized facet volume and
    h = o_i - n_i . v the lattice height of v: the Euclidean facet volume
    is vol(F) |n_i| and the Euclidean height h / |n_i|.  The pyramid is
    the cone from v over a triangulation of the facet, so vol(F) is its
    summed |det| over h (m-1)!.  Equals the offset derivative of the
    volume polynomial evaluated at the anchor; tests and the cross-check
    command compare the two routes.
    """
    if lattice.resolve((facet,)) is None:
        raise ValueError(f"facet {facet} carries no face")
    normal, offset = spec.facets[facet]
    charts = lattice.faces[()].charts
    apex = next(chart for chart in charts if facet not in chart.active_set)
    height = offset - sum(n * x for n, x in zip(normal, apex.anchor))
    simplices = [
        (apex.active_set,) + simplex for simplex in _triangulate(lattice.faces, (facet,))
    ]
    coords = {chart.active_set: chart.anchor for chart in charts}
    return _cone_sum(simplices, coords) / (height * factorial(spec.dim - 1))


def facet_volume_sum(spec: HalfSpaceSpec, lattice: FaceLattice) -> Fraction:
    return sum(
        (facet_volume_direct(spec, lattice, i) for i in range(spec.num_facets)),
        Fraction(0),
    )
