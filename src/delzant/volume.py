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
code with the vertex formula: they triangulate the polytope (or facet) at
concrete coordinates and sum simplex determinants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from typing import NamedTuple

from .errors import ChamberCrossedError
from .linalg import int_inverse_unimodular, mat_vec, ring_det, unimodular_for_normal
from .polynomial import MultiPoly
from .polytope import (
    FaceLattice,
    HalfSpaceSpec,
    VertexChart,
    _sort_key,
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

    ``faces`` maps active sets to face records (``dim`` and ``charts``);
    vertices are any objects with ``anchor`` and ``active_set`` attributes.
    Each face is coned from its least vertex.  Returns tuples of dim+1
    vertices each.
    """
    record = faces[key]
    dim, vertices = record.dim, record.charts
    if dim == 0:
        return [(vertices[0],)]
    base = min(vertices, key=lambda v: _sort_key(v.anchor))
    simplices = []
    for j in sorted(set(i for v in vertices for i in v.active_set) - set(key)):
        child = tuple(sorted(key + (j,)))
        if child not in faces or j in base.active_set:
            continue
        for simplex in _triangulate(faces, child):
            simplices.append((base,) + simplex)
    return simplices


class _SamplePoint(NamedTuple):
    anchor: tuple[Fraction, ...]
    active_set: tuple[int, ...]


def _incidence(points):
    return sorted(active for _, active in points)


def numeric_volume_at(spec: HalfSpaceSpec, sample) -> Fraction:
    """Exact volume at a rational offset vector in the anchor's chamber.

    Independent of the symbolic route: vertices are re-enumerated at the
    sample, the boundary is re-triangulated, and the simplex volumes are
    summed with absolute values.  Raises ChamberCrossedError when the
    vertex-facet incidence at the sample differs from the anchor's.
    """
    sample = tuple(Fraction(v) for v in sample)
    if len(sample) != spec.num_facets:
        raise ValueError(f"expected {spec.num_facets} offsets, got {len(sample)}")
    normals = spec.normals()
    at_anchor = feasible_vertex_points(normals, spec.offsets())
    at_sample = feasible_vertex_points(normals, sample)
    if _incidence(at_anchor) != _incidence(at_sample):
        raise ChamberCrossedError(
            "sample offsets lie outside the chamber of the anchor offsets"
        )
    m = spec.dim
    points = [_SamplePoint(anchor, active) for anchor, active in at_sample]
    total = Fraction(0)
    for simplex in _triangulate(build_face_lattice(spec, points).faces, ()):
        base = simplex[0]
        rows = [
            [v.anchor[c] - base.anchor[c] for c in range(m)]
            for v in simplex[1:]
        ]
        total += abs(ring_det(rows))
    return total / factorial(m)


def chamber_samples(spec: HalfSpaceSpec, count: int):
    """Deterministic rational offset samples verified to share the chamber.

    The anchor itself is the first sample; the rest are small perturbations,
    shrunk adaptively whenever a candidate crosses a chamber wall.
    """
    normals = spec.normals()
    anchor = spec.offsets()
    reference = _incidence(feasible_vertex_points(normals, anchor))
    rng = random.Random(0)
    samples = [tuple(Fraction(o) for o in anchor)]
    denominator = 8
    misses = 0
    while len(samples) < count:
        candidate = tuple(
            o + Fraction(rng.randint(-3, 3), denominator) for o in anchor
        )
        if candidate in samples:
            continue
        if _incidence(feasible_vertex_points(normals, candidate)) == reference:
            samples.append(candidate)
            misses = 0
        else:
            misses += 1
            if misses >= 10:
                denominator *= 2
                misses = 0
    return samples


def facet_volume_direct(spec: HalfSpaceSpec, lattice: FaceLattice, facet: int) -> Fraction:
    """Lattice-normalized (m-1)-volume of a facet, from first principles.

    Facet vertices are mapped into coordinates on a lattice basis of the
    facet hyperplane (built from a unimodular completion of the normal) and
    the volume is summed over a triangulation there.  Equals the offset
    derivative of the volume polynomial evaluated at the anchor; tests and
    the cross-check command compare the two routes.
    """
    m = spec.dim
    record = lattice.resolve((facet,))
    if record is None:
        raise ValueError(f"facet {facet} carries no face")
    if m == 1:
        return Fraction(1)
    u_inv = int_inverse_unimodular(unimodular_for_normal(spec.facets[facet].normal))
    coords = {}
    for chart in record.charts:
        y = mat_vec(u_inv, chart.anchor_ints())
        coords[chart.active_set] = y[1:]
    faces = {
        tuple(sorted(set(key) - {facet})): rec
        for key, rec in lattice.faces.items()
        if facet in key
    }
    total = Fraction(0)
    for simplex in _triangulate(faces, ()):
        base = coords[simplex[0].active_set]
        rows = [
            [coords[v.active_set][c] - base[c] for c in range(m - 1)]
            for v in simplex[1:]
        ]
        total += abs(ring_det(rows))
    return total / factorial(m - 1)


def facet_volume_sum(spec: HalfSpaceSpec, lattice: FaceLattice) -> Fraction:
    return sum(
        (facet_volume_direct(spec, lattice, i) for i in range(spec.num_facets)),
        Fraction(0),
    )
