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
facet normal.  Both polynomials keep integers until their coefficients
are final: the Lawrence sum adds vertex terms over one denominator, and
the derivatives act on the volume's integer numerators over its one
common denominator, so each coefficient of the volume and of the
boundary volume is one Fraction, built once.  The per-facet derivatives
are built only when read (``per_facet``, printed by ``volume-poly``
alone).

The numeric oracle and the direct facet volumes share no code with the
vertex formula, and no solver with the vertex enumeration.  Both cone
the anchor's face lattice into simplices of vertex active sets
(``_triangulate``, combinatorial, so one triangulation serves every point
of the chamber), place each vertex as an integer pair (D, x), the point
x / D, and sum simplex determinants; their one fraction-free elimination
(``_solve``) gives both, so only the volumes returned are Fractions.  A
facet's volume is read off the pyramid over it from a vertex off the
facet.  The oracle reads only the spec and the anchor's incidence: at
each sample it solves the anchor's vertices and proves they are all the
vertices there (``_anchor_vertices``).  It is compared with the
polynomial on integer points q anchor + alpha of the chamber
(``chamber_samples``), where agreement proves the two equal on the
whole chamber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from operator import mul

from .errors import ChamberCrossedError
from .polynomial import MultiPoly
from .polytope import FaceLattice, HalfSpaceSpec, VertexChart


@dataclass(frozen=True)
class VolumePolynomial:
    poly: MultiPoly


@dataclass(frozen=True)
class BoundaryVolumePolynomial:
    """The summed offset derivative ``poly`` of ``volume``; the derivative
    per facet (``per_facet``) is built on its first read."""

    volume: MultiPoly
    poly: MultiPoly

    @cached_property
    def per_facet(self) -> tuple[MultiPoly, ...]:
        return facet_derivatives(self.volume)


def _edge_pairings(chart: VertexChart, xi) -> list[int]:
    """det N_v c = X^T xi, X = det N_v^{-1}: one integer per active facet."""
    return [sum(map(mul, column, xi)) for column in zip(*chart.numerators)]


def _moment_direction(charts, m: int) -> tuple[int, ...]:
    """(1, b, ..., b^(m-1)) for the least b >= 2 that pairs to nonzero everywhere.

    Each c_a is a nonzero polynomial in b of degree below m, so at most
    (m - 1) values of b fail per entry and the search ends.
    """
    b = 2
    while True:
        xi = tuple(b**r for r in range(m))
        if all(all(_edge_pairings(chart, xi)) for chart in charts):
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


def _lawrence_rows(charts, xi) -> tuple[list, int]:
    """([(A_v, C, den_v)], lcm of the |den_v|): each vertex's row of the
    vertex formula for xi, read by ``_lawrence_volume`` and
    ``operators.symbolic_ehrhart``."""
    rows = []
    for chart in charts:
        pairings = _edge_pairings(chart, xi)
        if not all(pairings):
            raise ValueError(f"direction {xi} is orthogonal to an edge at {chart.anchor}")
        rows.append((chart.active_set, pairings, abs(chart.det) * prod(pairings)))
    return rows, lcm(*(abs(den) for _, _, den in rows))


def _lawrence_volume(charts, nvars: int, xi) -> MultiPoly:
    """The vertex formula for direction xi, summed exactly.

    Per vertex, c is taken as the integer vector C = det N_v c (the term is
    homogeneous of degree 0 in c), so the vertex contributes
    prod_a C_a^e_a / (prod_a e_a! * den_v) to the coefficient of o^e, with
    den_v = |det N_v| prod_a C_a.  Numerators are summed over the lcm of
    the den_v; only the final coefficients become Fractions.
    """
    m = len(xi)
    vertices, common = _lawrence_rows(charts, xi)
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
    return VolumePolynomial(poly=poly)


def _integer_terms(poly: MultiPoly) -> tuple[dict[tuple[int, ...], int], int]:
    """The coefficients of ``poly`` as integer numerators over their lcm:
    ({exponents: numerator}, denominator)."""
    terms = poly.terms()
    common = lcm(*(c.denominator for c in terms.values()))
    return {exps: c.numerator * (common // c.denominator) for exps, c in terms.items()}, common


def boundary_volume_polynomial(vol: VolumePolynomial) -> BoundaryVolumePolynomial:
    """Sum of the offset derivatives of the volume, on its integer
    numerators over one denominator; each coefficient is one Fraction."""
    numerators, common = _integer_terms(vol.poly)
    total: dict[tuple[int, ...], int] = {}
    for exps, num in numerators.items():
        for i, e in enumerate(exps):
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                total[key] = total.get(key, 0) + e * num
    poly = MultiPoly(
        vol.poly.nvars, {key: Fraction(num, common) for key, num in total.items() if num}
    )
    return BoundaryVolumePolynomial(volume=vol.poly, poly=poly)


def facet_derivatives(volume: MultiPoly) -> tuple[MultiPoly, ...]:
    """The offset derivative of the volume polynomial for each facet.

    A monomial that occurs in several facet derivatives is keyed by one
    shared exponent tuple in all of them.
    """
    numerators, common = _integer_terms(volume)
    per_facet: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(volume.nvars)]
    keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    for exps, num in numerators.items():
        for i, e in enumerate(exps):
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                per_facet[i][keys.setdefault(key, key)] = Fraction(e * num, common)
    return tuple(MultiPoly(volume.nvars, terms) for terms in per_facet)


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


def _solve(rows, rhs):
    """(det, x) with rows . x == det . rhs in integers, or None if singular.

    The oracle's own vertex solve: fraction-free Gauss-Jordan elimination
    of [rows | rhs].  After step k every row but the pivot row is cleared
    in column k, and each division by the previous pivot is exact
    (Bareiss, Math. Comp. 1968), so the last pivot ends up on the whole
    diagonal and the last column holds it times the solution.  x are the
    Cramer numerators: rows^{-1} rhs == x / det.
    """
    n = len(rows)
    a = [[*row, b] for row, b in zip(rows, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for r in range(n):
            f = a[r][k]
            if r != k and (f or p != prev):
                a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    return sign * prev, [sign * row[n] for row in a]


def _anchor_vertices(normals, actives, offsets):
    """Each anchor vertex solved at the offsets, once its incidence is proven.

    For each anchor active set A the point x_A with N_A x_A = o_A is
    accepted when it satisfies every facet and is tight on exactly A;
    otherwise ChamberCrossedError names the first vertex that fails.  The
    check proves the whole vertex set: the edge of x_A that leaves facet
    a meets the listed neighbour on it, since a facet met earlier would
    cut that neighbour off and one met at it would make it tight there.
    So the set is closed under adjacency, and as the graph of a polytope
    is connected (Balinski 1961), no other vertex exists.

    Returns a dict from each active set to the integer pair (D, x), the
    point x / D with D > 0, as the solve leaves it.
    """
    q = lcm(*(o.denominator for o in offsets))
    b = [o.numerator * (q // o.denominator) for o in offsets]
    coords = {}
    for active in actives:
        det, x = _solve([normals[i] for i in active], [b[i] for i in active])
        if det < 0:
            det, x = -det, [-c for c in x]
        slacks = [det * b[j] - sum(map(mul, n, x)) for j, n in enumerate(normals)]
        tight = tuple(j for j, s in enumerate(slacks) if s == 0)
        if tight != active or min(slacks) < 0:
            violated = next((j + 1 for j, s in enumerate(slacks) if s < 0), None)
            point = (Fraction(c, det * q) for c in x)
            tight = () if violated else [j + 1 for j in tight]
            raise ChamberCrossedError([i + 1 for i in active], point, violated, tight)
        coords[active] = (det * q, x)
    return coords


def _cone_sum(simplices, coords):
    """Sum of |det| over simplices of active sets, as an integer pair (num, den).

    ``coords`` maps each active set to (D, x), the point x / D with D > 0.
    A simplex's det(p_v - p_0) over its vertices v = 0..m has the integer
    edge rows D_0 x_v - D_v x_0 = D_0 D_v (p_v - p_0), v >= 1: it is their
    determinant, solved by ``_solve``, over D_0^m prod_{v>=1} D_v.
    """
    num, den = 0, 1
    for simplex in simplices:
        (d0, x0), *rest = (coords[v] for v in simplex)
        rows = [[d0 * a - d * b for a, b in zip(x, x0)] for d, x in rest]
        solved = _solve(rows, [0] * len(rows))
        if solved:
            scale = d0 ** len(rows) * prod(d for d, _ in rest)
            common = lcm(den, scale)
            num, den = num * (common // den) + abs(solved[0]) * (common // scale), common
    return num, den


def anchor_triangulation(lattice: FaceLattice) -> tuple:
    """The anchor polytope coned into simplices, each a tuple of vertex active sets.

    Built from the face lattice alone, which needs no Delzant check; it
    is combinatorial, so it holds at every offset vector with the anchor's
    incidence.
    """
    return tuple(_triangulate(lattice.faces, ()))


def numeric_volume_at(prep, sample) -> Fraction:
    """Exact volume of a ``Prepared`` family at offsets in the anchor's chamber.

    Independent of the symbolic route: only the anchor's vertices are
    solved at the sample, each proven to keep its incidence
    (``_anchor_vertices``), and the simplex volumes of the anchor's one
    triangulation (``prep.triangulation``) at those points are summed
    with absolute values.  The offsets are ints or Fractions.  Every
    vertex is an integer pair (D, x) and every determinant an integer, so
    the one Fraction built is the volume returned (at integer offsets in
    a Delzant chamber every D is 1).  Raises ChamberCrossedError, naming
    the first vertex that fails, when the incidence at the sample differs
    from the anchor's.
    """
    spec = prep.spec
    if len(sample) != spec.num_facets:
        raise ValueError(f"expected {spec.num_facets} offsets, got {len(sample)}")
    actives = [chart.active_set for chart in prep.charts]
    coords = _anchor_vertices(spec.normals(), actives, sample)
    num, den = _cone_sum(prep.triangulation, coords)
    return Fraction(num, den * factorial(spec.dim))


def chamber_samples(prep) -> list[tuple[int, ...]]:
    """The principal lattice q anchor + alpha, |alpha| <= m, of a ``Prepared``.

    Its C(d+m, m) points (alpha in N^d) are an affine image of the
    principal lattice, so they are unisolvent for degree <= m (Nicolaides,
    SIAM J. Numer. Anal. 1972; Chung and Yao, ibid. 1977): a degree-m
    polynomial that matches the oracle on them is the volume on the
    chamber.  q doubles from 2 until the d corners q anchor + m e_i keep
    the anchor's incidence, proven as in the oracle (``_anchor_vertices``).
    The chamber is a convex cone (its walls are linear in the offsets),
    so then every point does; the points are integers, so the oracle and
    the polynomial both evaluate in integers.  If the corners fail at
    q = 2, the anchor itself is proven once: the corners tend to q anchor,
    so if it fails no q can work and its ChamberCrossedError is raised.
    If it passes, each vertex is strictly inside every facet off it, and
    those slacks are linear in the offsets, so the doubling ends.
    """
    spec = prep.spec
    d, m = spec.num_facets, spec.dim
    normals, anchor = spec.normals(), spec.offsets()
    actives = [chart.active_set for chart in prep.charts]

    def shifted(alpha, q):
        return tuple(q * o + a for o, a in zip(anchor, alpha))

    def in_chamber(offsets):
        try:
            _anchor_vertices(normals, actives, offsets)
        except ChamberCrossedError:
            return False
        return True

    corners = [tuple(m * (i == j) for j in range(d)) for i in range(d)]
    q = 2
    while not all(in_chamber(shifted(c, q)) for c in corners):
        if q == 2:
            _anchor_vertices(normals, actives, anchor)
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
    command compare the two routes.  Each chart gives its vertex as the
    integer pair (|det|, P), so h and the determinants are integers.
    """
    if lattice.resolve((facet,)) is None:
        raise ValueError(f"facet {facet} carries no face")
    normal, offset = spec.facets[facet]
    charts = lattice.faces[()].charts
    coords = {chart.active_set: (abs(chart.det), chart.point) for chart in charts}
    apex = next(active for active in coords if facet not in active)
    # h = (o_i D - n_i . x) / D at the apex x / D
    scale, point = coords[apex]
    height = offset * scale - sum(map(mul, normal, point))
    simplices = [(apex,) + simplex for simplex in _triangulate(lattice.faces, (facet,))]
    num, den = _cone_sum(simplices, coords)
    return Fraction(num * scale, den * height * factorial(spec.dim - 1))


def facet_volume_sum(spec: HalfSpaceSpec, lattice: FaceLattice) -> Fraction:
    return sum(
        (facet_volume_direct(spec, lattice, i) for i in range(spec.num_facets)),
        Fraction(0),
    )
