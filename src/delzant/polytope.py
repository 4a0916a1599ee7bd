"""Half-space polytope families, vertex charts, and the face lattice.

A polytope family is given by d primitive integer facet normals n_i and
integer offsets o_i, defining the intersection of the half-spaces
x . n_i <= o_i.  The offsets can be varied; the bundled offsets are the
anchor at which all combinatorics (and, downstream, the chamber of the
volume polynomial) are fixed.

Vertices come from a breadth-first walk along the edges of a simple
polytope (Avis and Fukuda, Discrete Comput. Geom. 8, 1992), one exact
integer solve per vertex.  A family the walk cannot certify (rank-deficient
normals, empty, unbounded or non-simple) falls back to solving every
m-subset of facets, whose checks raise the error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
)
from .linalg import int_solve, kernel_direction, kernel_vector


class Facet(NamedTuple):
    normal: tuple[int, ...]
    offset: int


class HalfSpaceSpec:
    """Immutable H-representation with primitive integer normals."""

    __slots__ = ("dim", "facets", "name")

    def __init__(self, dim: int, facets: Iterable, name: str | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        built = []
        for normal, offset in facets:
            normal = tuple(int(x) for x in normal)
            if len(normal) != dim:
                raise ValueError(f"normal {normal} has length {len(normal)}, expected {dim}")
            if all(x == 0 for x in normal):
                raise ValueError("zero normal vector")
            if gcd(*(abs(x) for x in normal)) != 1:
                raise ValueError(f"normal {normal} is not primitive")
            if int(offset) != offset:
                raise ValueError(f"offset {offset} is not an integer")
            built.append(Facet(normal, int(offset)))
        if len(built) < dim + 1:
            raise ValueError(
                f"need at least {dim + 1} facets for a bounded {dim}-polytope, got {len(built)}"
            )
        self.dim = dim
        self.facets = tuple(built)
        self.name = name

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def normals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.normal for f in self.facets)

    def offsets(self) -> tuple[int, ...]:
        return tuple(f.offset for f in self.facets)

    def dilate(self, k: int) -> "HalfSpaceSpec":
        if k < 1:
            raise ValueError("dilation k must be a positive integer")
        return HalfSpaceSpec(
            self.dim,
            [(f.normal, k * f.offset) for f in self.facets],
            name=self.name,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HalfSpaceSpec)
            and self.dim == other.dim
            and self.facets == other.facets
        )

    __hash__ = None

    def __repr__(self) -> str:
        label = self.name or "polytope"
        return f"HalfSpaceSpec({label}, dim={self.dim}, facets={self.num_facets})"


@dataclass(frozen=True)
class VertexChart:
    """A vertex as the intersection of exactly m facets.

    ``inverse`` is the inverse of the active facets' normal matrix, so
    ``anchor`` is ``inverse`` applied to their offsets.  For Delzant
    charts the inverse matrix is integral.
    """

    active_set: tuple[int, ...]
    det: int
    inverse: tuple[tuple[Fraction, ...], ...]
    anchor: tuple[Fraction, ...]

    def anchor_ints(self) -> tuple[int, ...]:
        if any(c.denominator != 1 for c in self.anchor):
            raise ValueError(f"vertex {self.anchor} is not a lattice point")
        return tuple(int(c) for c in self.anchor)


def _sort_key(anchor: Sequence[Fraction]):
    # graded-lex on coordinates: compare coordinate sum, then the tuple
    return (sum(anchor), tuple(anchor))


def feasible_vertex_points(normals, offsets):
    """All basic feasible points of the system x . n_i <= o_i.

    Returns a list of (point, full_active_set) pairs with exact rational
    coordinates, one entry per geometric point, sorted deterministically.
    Offsets may be rational; no simplicity or boundedness checks here.

    The offsets are scaled once to integers b = q o, q the lcm of their
    denominators.  Each m-subset S of facets is one ``int_solve``: its
    Cramer numerators X satisfy N_S X = det b_S, so the point is
    X / (det q).  With det made positive, facet j holds iff
    n_j . X <= det b_j and is tight iff they are equal, all in integers;
    Fractions are built only for the points kept.
    """
    m = len(normals[0])
    q = lcm(*(o.denominator for o in offsets))
    b = [o.numerator * (q // o.denominator) for o in offsets]
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for subset in combinations(range(len(normals)), m):
        solved = int_solve([normals[i] for i in subset], [[b[i]] for i in subset])
        if solved is None:
            continue
        det, x = solved
        x = [row[0] for row in x]
        if det < 0:
            det, x = -det, [-c for c in x]
        active = []
        for j, normal in enumerate(normals):
            value = sum(n * c for n, c in zip(normal, x))
            bound = det * b[j]
            if value > bound:
                break
            if value == bound:
                active.append(j)
        else:
            found[tuple(Fraction(c, det * q) for c in x)] = tuple(active)
    return sorted(found.items(), key=lambda kv: _sort_key(kv[0]))


def recession_ray(normals):
    """A nonzero integer ray of {x : x . n_i <= 0 for all i}, or None.

    The error path of ``enumerate_vertices`` only: the edge walk proves a
    valid polytope bounded without it.  The cone is trivial iff the
    normals positively span R^m.  A rank deficiency gives a lineality
    direction immediately; otherwise the cone is pointed and any nonzero
    ray is witnessed by an extreme ray, i.e. by the kernel direction of
    some m-1 of the normals.
    """
    m = len(normals[0])
    kernel = kernel_vector(normals)
    if kernel is not None:
        return kernel

    def feasible(ray):
        return all(sum(n[c] * ray[c] for c in range(m)) <= 0 for n in normals)

    for subset in combinations(range(len(normals)), m - 1):
        ray = kernel_direction([normals[i] for i in subset], m)
        if ray is None:
            continue
        if feasible(ray):
            return ray
        neg = tuple(-x for x in ray)
        if feasible(neg):
            return neg
    return None


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _independent_subsets(normals):
    """The m-subsets of facets with linearly independent normals, in lex
    order: a prefix whose normals are dependent is cut with every
    extension, so singular subsets cost one rank test per cut prefix."""
    m = len(normals[0])
    d = len(normals)

    def extend(prefix):
        for j in range(prefix[-1] + 1 if prefix else 0, d - m + len(prefix) + 1):
            subset = (*prefix, j)
            if kernel_vector(list(zip(*(normals[i] for i in subset)))) is not None:
                continue
            if len(subset) == m:
                yield subset
            else:
                yield from extend(subset)

    return extend(())


def _edge_walk(normals, offsets):
    """The charts of a simple polytope by a breadth-first walk on its edges.

    Returns None, for the caller to fall back to the subset path, when the
    walk cannot certify a simple polytope: no m-subset of facets gives a
    feasible point, the first one found (in lex order) is on more than m
    facets, an edge has no blocking facet (unbounded), or two facets
    block an edge at once (a non-simple neighbour).

    At a vertex with active set A, ``int_solve(N_A, I)`` gives (det, X),
    X = det N_A^{-1}; the same solve makes its chart.  With D = |det| and
    s its sign, P = s X b_A is D times the vertex and D b_j - n_j . P is
    D times facet j's slack.  The edge that leaves facet A[i] has integer
    direction -s X[:, i], and facet j blocks it at the least ratio
    slack_j / rate_j over the rates n_j . direction > 0, compared by
    cross-multiplication.  A vertex reached along an edge with a single
    blocking facet is on exactly m facets, so every visited vertex is
    simple; the edge graph is connected and no edge is unbounded, so the
    visited vertices are all of them and the polytope is bounded.
    """
    m = len(normals[0])
    identity = [[int(i == j) for j in range(m)] for i in range(m)]

    def solve(active):
        # every active set solved here has independent normals
        det, inverse = int_solve([normals[i] for i in active], identity)
        sign = 1 if det > 0 else -1
        point = [sign * _dot(row, (offsets[i] for i in active)) for row in inverse]
        slacks = [abs(det) * o - _dot(n, point) for n, o in zip(normals, offsets)]
        return det, inverse, point, slacks

    for start in _independent_subsets(normals):
        first = solve(start)
        *_, slacks = first
        if min(slacks) >= 0:
            break
    else:
        return None
    if slacks.count(0) != m:
        return None

    seen = {start}
    queue = deque([(start, first)])
    charts = []
    while queue:
        active, (det, inverse, point, slacks) = queue.popleft()
        charts.append(
            VertexChart(
                active_set=active,
                det=det,
                inverse=tuple(tuple(Fraction(x, det) for x in row) for row in inverse),
                anchor=tuple(Fraction(c, abs(det)) for c in point),
            )
        )
        sign = 1 if det > 0 else -1
        others = [j for j in range(len(normals)) if j not in active]
        for leave, column in zip(active, zip(*inverse)):
            best, tied = None, False
            for j in others:
                rate = -sign * _dot(normals[j], column)
                if rate <= 0:
                    continue
                if best is not None:
                    # the sign of slack_j / rate - slack_best / rate_best
                    order = slacks[j] * best[1] - slacks[best[0]] * rate
                    if order > 0:
                        continue
                    if order == 0:
                        tied = True
                        continue
                best, tied = (j, rate), False
            if best is None or tied:
                return None
            neighbour = tuple(sorted(i for i in (*active, best[0]) if i != leave))
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append((neighbour, solve(neighbour)))
    return sorted(charts, key=lambda chart: _sort_key(chart.anchor))


def _subset_charts(normals, offsets):
    """The charts from every m-subset of facets, after the checks in order:
    boundedness (trivial recession cone), nonemptiness and simplicity."""
    m = len(normals[0])
    ray = recession_ray(normals)
    if ray is not None:
        raise UnboundedError(ray)

    points = feasible_vertex_points(normals, offsets)
    if not points:
        raise EmptyPolytopeError("the half-space intersection is empty")
    for point, active in points:
        if len(active) > m:
            raise NonSimpleError(point, [i + 1 for i in active])

    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    charts = []
    for point, active in points:
        det, inverse = int_solve([normals[i] for i in active], identity)
        charts.append(
            VertexChart(
                active_set=tuple(active),
                det=det,
                inverse=tuple(tuple(Fraction(x, det) for x in row) for row in inverse),
                anchor=tuple(point),
            )
        )
    return charts


def enumerate_vertices(spec: HalfSpaceSpec) -> list[VertexChart]:
    """One chart per vertex, in ``_sort_key`` order; raises if the family
    is degenerate.

    Normals of full rank go to the edge walk (``_edge_walk``), which
    solves once per vertex.  Rank-deficient normals, or a walk that meets
    an empty, unbounded or non-simple family, fall back to the subset
    path (``_subset_charts``), which checks, in order: boundedness,
    nonemptiness and simplicity (every vertex on exactly m facets).  Both
    give the same charts on a valid family.  Irredundancy (every facet
    carries a vertex) is read from the charts last.
    """
    normals = spec.normals()
    offsets = spec.offsets()
    charts = None
    if kernel_vector(normals) is None:
        charts = _edge_walk(normals, offsets)
    if charts is None:
        charts = _subset_charts(normals, offsets)
    used = {i for chart in charts for i in chart.active_set}
    missing = [i + 1 for i in range(spec.num_facets) if i not in used]
    if missing:
        raise RedundantFacetError(missing)
    return charts


@dataclass(frozen=True)
class DelzantFailure:
    active_set: tuple[int, ...]
    anchor: tuple[Fraction, ...]
    det: int


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    failures: tuple[DelzantFailure, ...]

    def summary(self) -> str:
        if self.ok:
            return "all vertex determinants are +-1"
        return "; ".join(
            f"vertex {_anchor_text(f.anchor)}: det {f.det} != +-1" for f in self.failures
        )


def _anchor_text(anchor) -> str:
    parts = ", ".join(str(c) for c in anchor)
    return f"({parts})"


def validate_delzant(spec: HalfSpaceSpec, charts=None) -> DelzantReport:
    """Check the unimodularity condition at every vertex.

    Failures are report entries, not exceptions; structural problems
    (non-simple, unbounded, empty) still raise from enumerate_vertices.
    """
    if charts is None:
        charts = enumerate_vertices(spec)
    failures = tuple(
        DelzantFailure(c.active_set, c.anchor, c.det)
        for c in charts
        if c.det not in (1, -1)
    )
    return DelzantReport(ok=not failures, failures=failures)


@dataclass(frozen=True)
class FaceRecord:
    active_set: tuple[int, ...]
    dim: int
    charts: tuple[VertexChart, ...]


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a simple polytope, keyed by their active facet set.

    For a simple polytope every nonempty intersection of facets is a face
    whose active set is exactly the intersecting index set, so resolution
    is a dictionary lookup.
    """

    faces: dict[tuple[int, ...], FaceRecord]

    def resolve(self, subset: Iterable[int]) -> FaceRecord | None:
        return self.faces.get(tuple(sorted(subset)))

    def proper_faces(self) -> list[FaceRecord]:
        return [rec for key, rec in sorted(self.faces.items()) if key]

    def euler_sum(self) -> int:
        """Sum of (-1)^dim over all faces including the polytope itself."""
        return sum((-1) ** rec.dim for rec in self.faces.values())


def build_face_lattice(spec: HalfSpaceSpec, charts) -> FaceLattice:
    """Enumerate every face from vertex active sets.

    Requires a Delzant-validated (in particular simple) polytope: each face
    is spanned by the vertices whose active sets contain its index set.
    """
    m = spec.dim
    members: dict[tuple[int, ...], list[VertexChart]] = {}
    for chart in charts:
        for size in range(m + 1):
            for subset in combinations(chart.active_set, size):
                members.setdefault(subset, []).append(chart)
    faces = {
        key: FaceRecord(active_set=key, dim=m - len(key), charts=tuple(vs))
        for key, vs in members.items()
    }
    return FaceLattice(faces)
