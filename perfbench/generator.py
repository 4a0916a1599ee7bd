"""Seeded polytope generator for the benchmark ladders.

Every input the benchmark sends to the program is built here and handed
over as ``.poly`` text; nothing in this module imports the program.

Constructions:

* scaled unit simplices and products of them (boxes and cubes are
  products of segments, i.e. of 1-simplices), which carry closed-form
  Ehrhart polynomials (see ``closed_forms.py``);
* images under GL_m(Z), built as a coordinate permutation, optionally
  with signs and ``shears`` elementary matrices, and lattice translations;
* iterated vertex blow-ups.  At a simple vertex v with active normals n_i
  the new facet has normal sum(n_i) and offset sum(n_i).v - eps, where eps
  is shorter than every edge at v (in lattice length).  A longer cut
  reaches a neighbouring vertex and leaves the result non-simple or with
  a redundant facet.

A ``Shape`` records how an input was built, so the checks can derive its
expected counts without running the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import atan2, gcd


@dataclass(frozen=True)
class Polytope:
    """H-representation {x : n_i . x <= o_i} with integer data."""

    name: str
    dim: int
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def to_poly_text(self) -> str:
        lines = [f"name {self.name}", f"dim {self.dim}"]
        for normal, offset in self.facets:
            lines.append("facet " + " ".join(str(x) for x in normal + (offset,)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Shape:
    """How an input was built: a product of scaled unit simplices
    ``(dim, scale)`` in facet order, or a lattice polygon given by the
    lattice length of each facet's edge and twice its area."""

    simplices: tuple[tuple[int, int], ...] = ()
    polygon_edges: tuple[int, ...] = ()
    polygon_area2: int = 0


def parse_poly_text(text: str) -> Polytope:
    """Read a ``.poly`` file (comments, blank lines, name, dim, facets)."""
    name, dim, facets = "", 0, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "name":
            name = rest.strip()
        elif head == "dim":
            dim = int(rest)
        elif head == "facet":
            values = [int(tok) for tok in rest.split()]
            facets.append((tuple(values[:-1]), values[-1]))
        else:
            raise ValueError(f"unexpected line {raw!r}")
    return Polytope(name, dim, tuple(facets))


def simplex(m: int, scale: int = 1) -> Polytope:
    """The unit m-simplex scaled by ``scale``: x_i >= 0, sum x_i <= scale."""
    facets = [(tuple(-int(i == j) for j in range(m)), 0) for i in range(m)]
    facets.append(((1,) * m, scale))
    return Polytope(f"{scale}-scaled {m}-simplex", m, tuple(facets))


def product(p: Polytope, q: Polytope) -> Polytope:
    """P x Q, with P's facets first."""
    facets = [(n + (0,) * q.dim, o) for n, o in p.facets]
    facets += [((0,) * p.dim + n, o) for n, o in q.facets]
    return Polytope(f"{p.name} x {q.name}", p.dim + q.dim, tuple(facets))


def product_of(parts: list[Polytope], name: str) -> Polytope:
    result = parts[0]
    for part in parts[1:]:
        result = product(result, part)
    return Polytope(name, result.dim, result.facets)


def unimodular(m: int, rng: random.Random, signs: bool = True, shears: int = 0):
    """A random U in GL_m(Z) and its inverse, both integer matrices.

    U is a coordinate permutation, with random signs if ``signs``, followed
    by ``shears`` elementary row operations row_i += c * row_j, c = +-1.
    """
    perm = list(range(m))
    rng.shuffle(perm)
    flips = [rng.choice((-1, 1)) if signs else 1 for _ in range(m)]
    u = [[flips[r] if c == perm[r] else 0 for c in range(m)] for r in range(m)]
    u_inv = [[u[c][r] for c in range(m)] for r in range(m)]  # orthogonal
    for _ in range(shears if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        # (E U)^-1 = U^-1 E^-1, and E^-1 subtracts c * column i from column j
        for row in u_inv:
            row[j] -= c * row[i]
    return u, u_inv


def transform(p: Polytope, u_inv, translation) -> Polytope:
    """Image of P under x -> U x + t, given U^-1 and t.

    {x : N x <= o} maps to {y : N U^-1 y <= o + N U^-1 t}.
    """
    m = p.dim
    facets = []
    for normal, offset in p.facets:
        image = tuple(sum(normal[r] * u_inv[r][c] for r in range(m)) for c in range(m))
        facets.append((image, offset + sum(a * b for a, b in zip(image, translation))))
    return Polytope(p.name, m, tuple(facets))


def random_image(p: Polytope, rng: random.Random, signs=True, shears=0, spread=5):
    """Image of P under a random U in GL_m(Z) and a translation in [-spread, spread]^m."""
    _, u_inv = unimodular(p.dim, rng, signs, shears)
    translation = [rng.randint(-spread, spread) for _ in range(p.dim)]
    return transform(p, u_inv, translation)


def _solve(rows, rhs):
    """Exact solution of a square system, or None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] / a[r][r] for r in range(n))


def vertices(p: Polytope):
    """Every vertex with its full active set, by brute force over m-subsets."""
    normals = [n for n, _ in p.facets]
    offsets = [o for _, o in p.facets]
    found = {}
    for subset in combinations(range(len(normals)), p.dim):
        point = _solve([normals[i] for i in subset], [offsets[i] for i in subset])
        if point is None or point in found:
            continue
        values = [sum(a * b for a, b in zip(n, point)) for n in normals]
        if all(v <= o for v, o in zip(values, offsets)):
            found[point] = tuple(j for j, (v, o) in enumerate(zip(values, offsets)) if v == o)
    return sorted(found.items())


def _edge_lengths(vertex, active, verts):
    """Lattice lengths of the edges at a simple vertex."""
    lengths = []
    for drop in active:
        keep = set(active) - {drop}
        (other,) = [w for w, act in verts if w != vertex and keep <= set(act)]
        step = [int(b - a) for a, b in zip(vertex, other)]
        lengths.append(gcd(*step))
    return lengths


def blow_up(p: Polytope, cuts: int, name: str) -> Polytope:
    """Cut ``cuts`` vertices off in turn, always the vertex whose shortest
    edge is longest (first in sorted order on ties), with eps half that
    edge.  Lengths are re-measured after every cut, because a cut
    shortens the edges of the neighbouring vertices."""
    for _ in range(cuts):
        verts = vertices(p)
        best = None
        for vertex, active in verts:
            shortest = min(_edge_lengths(vertex, active, verts))
            if best is None or shortest > best[0]:
                best = (shortest, vertex, active)
        shortest, vertex, active = best
        if shortest < 2:
            raise ValueError(f"no vertex of {p.name} has all edges of length >= 2")
        eps = shortest // 2
        normal = tuple(sum(p.facets[i][0][c] for i in active) for c in range(p.dim))
        offset = int(sum(a * b for a, b in zip(normal, vertex))) - eps
        p = Polytope(p.name, p.dim, p.facets + ((normal, offset),))
    return Polytope(name, p.dim, p.facets)


def polygon_shape(p: Polytope) -> Shape:
    """Shape of a lattice polygon: lattice length of each facet's edge and
    twice the area (shoelace over the vertices in angular order)."""
    verts = [(tuple(int(c) for c in v), act) for v, act in vertices(p)]
    edges = []
    for j in range(len(p.facets)):
        a, b = [v for v, act in verts if j in act]
        edges.append(gcd(b[0] - a[0], b[1] - a[1]))
    cx = sum(v[0] for v, _ in verts) / len(verts)
    cy = sum(v[1] for v, _ in verts) / len(verts)
    ring = sorted((v for v, _ in verts), key=lambda v: atan2(v[1] - cy, v[0] - cx))
    area2 = sum(
        a[0] * b[1] - a[1] * b[0] for a, b in zip(ring, ring[1:] + ring[:1])
    )
    return Shape(polygon_edges=tuple(edges), polygon_area2=area2)
