"""Half-space polytope families, vertex charts, and the face lattice.

A polytope family is given by d primitive integer facet normals n_i and
integer offsets o_i, defining the intersection of the half-spaces
x . n_i <= o_i.  The offsets can be varied; the bundled offsets are the
anchor at which all combinatorics (and, downstream, the chamber of the
volume polynomial) are fixed.

Vertices come from a breadth-first walk along the edges of a simple
polytope (Avis and Fukuda, Discrete Comput. Geom. 8, 1992): one exact
integer solve for the start vertex, which an exact phase 1 finds when
the first basis of facets is infeasible, and one exact integer pivot of
that chart along each edge to every other vertex (Avis, Comput. Geom.
15, 2000).  A pivot reads the neighbour's point and facet slacks off the
rates its ratio test has just computed, so it costs O(d) beyond the
chart's rank-one update, with no dot product per facet.  The walk raises
every structural error: rank-deficient normals or an edge nothing blocks
(unbounded), a positive phase-1 minimum (empty), and a start vertex or a
tied ratio test on more than m facets (not simple).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
    cut,
)
from .linalg import independent_rows, int_solve, kernel_vector


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
                raise ValueError(
                    f"normal {normal} has length {len(normal)}, expected {cut(dim)}"
                )
            if all(x == 0 for x in normal):
                raise ValueError("zero normal vector")
            if gcd(*(abs(x) for x in normal)) != 1:
                raise ValueError(f"normal {normal} is not primitive")
            if int(offset) != offset:
                raise ValueError(f"offset {offset} is not an integer")
            built.append(Facet(normal, int(offset)))
        if len(built) < dim + 1:
            raise ValueError(
                f"need at least {cut(dim + 1)} facets for a bounded {cut(dim)}-polytope, "
                f"got {len(built)}"
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
    """A vertex as the intersection of exactly m facets, in integers.

    With N_A the active facets' normal matrix and det its determinant,
    ``numerators`` is X = det N_A^{-1} and ``point`` is P = |det| times
    the vertex, both integer; the vertex formula and the facet volumes
    read these.  ``anchor`` (the vertex, N_A^{-1} applied to the active
    offsets) is P / |det| in Fractions, built on first read, as is the
    vertex in integers that ``anchor_ints`` returns (it raises ValueError
    on every read of a vertex that is not a lattice point).  For Delzant
    charts det is +-1, so X is +-N_A^{-1} and P the vertex itself.
    """

    active_set: tuple[int, ...]
    det: int
    numerators: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]

    @cached_property
    def anchor(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, abs(self.det)) for p in self.point)

    @cached_property
    def _lattice_point(self) -> tuple[int, ...] | None:
        scale = abs(self.det)
        if any(p % scale for p in self.point):
            return None
        return tuple(p // scale for p in self.point)

    def anchor_ints(self) -> tuple[int, ...]:
        if self._lattice_point is None:
            raise ValueError(f"vertex {self.anchor} is not a lattice point")
        return self._lattice_point


def _sort_key(coords: Sequence):
    # graded-lex on coordinates: compare coordinate sum, then the tuple
    return (sum(coords), tuple(coords))


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _first_basis(normals):
    """The first m facets whose normals are independent, taken greedily in
    index order: the lex-least m-subset of facets with a nonsingular normal
    matrix.  Normals of rank below m raise UnboundedError along a kernel
    vector."""
    m = len(normals[0])
    basis = independent_rows(normals, m)
    if len(basis) < m:
        raise UnboundedError(kernel_vector(normals))
    return basis


def _read_off(rows, rhs, active, det, inverse):
    """The ``_vertex`` tuple of ``active`` from its chart (det, X).

    With D = |det| and s its sign, P = s X rhs_A is D times the point and
    D rhs_j - rows_j . P is D times row j's slack.  Returns (det, X, P, slacks).
    """
    sign, at = (1 if det > 0 else -1), [rhs[i] for i in active]
    point = [sign * _dot(row, at) for row in inverse]
    slacks = [abs(det) * o - _dot(n, point) for n, o in zip(rows, rhs)]
    return det, inverse, point, slacks


def _vertex(rows, rhs, active, identity):
    """The basic point of ``active`` in {z : rows . z <= rhs}, in integers:
    one ``int_solve(rows_A, I)`` gives (det, X) with X = det rows_A^{-1},
    and ``_read_off`` the rest."""
    return _read_off(rows, rhs, active, *int_solve([rows[i] for i in active], identity))


def _pivot(normals, vertex, active, i, j, neighbour, direction, rates):
    """The ``_vertex`` tuple of ``neighbour`` = A - A[i] + j, in sorted
    order, from A's: one exact rank-one update of the chart (det, X), and
    the point and slacks read from the rates of the ratio test that found j.

    Row i of N_A replaced by n_j has det' = n_j . X[:, i].  Its X' keeps
    column i, and column k != i is (det' X[:, k] - (n_j . X[:, k]) X[:, i])
    / det, exact by Sylvester's identity.  Sorting n_j into place moves
    column i there and multiplies det' and X' by the sign of that cycle.
    The edge is P/D + t ``direction``, D = |det|, and with R the rates
    rows . direction row j blocks it at t = S_j / (D R_j), where R_j =
    |det'|.  So P' = (R_j P + S_j direction) / D and S'_r = (S_r R_j - S_j
    R_r) / D: both divisions are exact, as P' and S' are the integer point
    and slacks |det'| times the neighbour's.  The left facet A[i], whose
    rate is -D, gets slack S_j; the other active rows keep 0.
    """
    det, inverse, point, slacks = vertex
    pairings = [_dot(normals[j], column) for column in zip(*inverse)]
    new_det = pairings[i]
    place = neighbour.index(j)
    sign = -1 if (place - i) % 2 else 1
    pivoted = []
    for row in inverse:
        x = row[i]
        moved = [(new_det * y - w * x) // det for y, w in zip(row, pairings)]
        moved[i] = x
        moved.insert(place, moved.pop(i))
        pivoted.append(moved if sign > 0 else [-y for y in moved])
    scale, rate, slack = abs(det), rates[j], slacks[j]
    moved_point = [(rate * p + slack * e) // scale for p, e in zip(point, direction)]
    moved_slacks = [(s * rate - slack * r) // scale for s, r in zip(slacks, rates)]
    moved_slacks[active[i]] = slack
    return sign * new_det, pivoted, moved_point, moved_slacks


def _ratio_test(rows, slacks, direction, outside):
    """The inactive rows ``outside`` that block ``direction`` first, and the rates.

    Row j blocks at slack_j / rate_j over the rates rows_j . direction > 0;
    the least ratios are found by cross-multiplication.  No row blocks an
    unbounded direction: the list is then empty.  The rates come back as
    one list over all rows, 0 at the rows not in ``outside``, for
    ``_pivot`` to read the neighbour off.
    """
    blocking, least, rates = [], None, [0] * len(rows)
    for j in outside:
        rate = rates[j] = _dot(rows[j], direction)
        if rate <= 0:
            continue
        if blocking:
            # the sign of slack_j / rate - slack_first / least
            order = slacks[j] * least - slacks[blocking[0]] * rate
            if order > 0:
                continue
            if order == 0:
                blocking.append(j)
                continue
        blocking, least = [j], rate
    return blocking, rates


def _phase_one(normals, offsets, basis, slacks):
    """A vertex of the family, from a basis whose point violates a facet.

    Minimises t over n_j . x - t <= o_j (j outside ``basis``), n_j . x <= o_j
    (j in it) and t >= 0, the row of index d, by the simplex method on
    active sets with Bland's least-index rule, which cannot cycle (Bland,
    Math. Oper. Res. 2, 1977).  It starts at the basis and its most
    violated facet; each pivot releases the least active row whose
    multiplier lowers t and takes in the least blocking row, one
    ``int_solve`` per active set.  A positive minimum raises
    EmptyPolytopeError.  Once t = 0 the point is a vertex of the family,
    and the facet slacks are the family's own.

    Returns its active set and ``_vertex`` tuple in the family's terms.
    When the row t >= 0 is active, the other m rows N_T are the facets
    tight there, and the lifted X, block triangular, has -det N_T^{-1} as
    its corner.  Otherwise more than m facets are tight, and the caller
    raises before it reads the inverse.
    """
    m, d = len(normals[0]), len(normals)
    rows = [(*n, 0 if j in basis else -1) for j, n in enumerate(normals)]
    rows.append((0,) * m + (-1,))
    rhs = (*offsets, 0)
    identity = [[int(i == j) for j in range(m + 1)] for i in range(m + 1)]
    active = tuple(sorted((*basis, min(range(d), key=slacks.__getitem__))))
    while True:
        det, inverse, point, lifted = _vertex(rows, rhs, active, identity)
        if point[m] == 0:
            break
        # the multiplier of active row i has the sign of -X[m][i] / det
        sign = 1 if det > 0 else -1
        leave = next((i for i, x in enumerate(inverse[m]) if sign * x > 0), None)
        if leave is None:
            raise EmptyPolytopeError("the half-space intersection is empty")
        outside = [j for j in range(d + 1) if j not in active]
        blocking, _ = _ratio_test(rows, lifted, [-sign * row[leave] for row in inverse], outside)
        active = tuple(sorted((*active[:leave], *active[leave + 1 :], blocking[0])))
    corner = [[-x for x in row[:m]] for row in inverse[:m]]
    return active[:m], (-det, corner, point[:m], lifted[:d])


def _edge_walk(normals, offsets):
    """The charts of a simple polytope by a breadth-first walk on its edges.

    Rank-deficient normals raise UnboundedError along a kernel vector
    (``_first_basis``).  The walk starts at the first basis if its point
    is feasible, else at the vertex ``_phase_one`` finds, and requires
    that vertex on exactly m facets; its chart is the one solved there.
    At a vertex with active set A and chart (det, X), the edge that leaves
    facet A[i] has integer direction -s X[:, i], and ``_ratio_test`` gives
    the facet j that blocks it and every row's rate along it; the
    neighbour is A - A[i] + j, its chart is pivoted from A's, and its point
    and slacks are read from those rates (``_pivot``), with no dot product
    of its own; ``_read_off`` serves only the start vertex.  An edge
    nothing blocks raises UnboundedError along its primitive direction,
    and two facets blocking at once raise NonSimpleError at the point
    they meet, with every facet tight there.  A vertex reached along an
    edge with a single blocking facet is on exactly m facets, so every
    visited vertex is simple; the edge graph is connected and no edge is
    unbounded, so the visited vertices are all of them and the polytope
    is bounded.  Each edge is ratio-tested from one end only: the test
    that finds the neighbour marks the edge that leaves facet j there,
    and its one blocking facet is A[i], so no error can come of testing
    it again.  The charts are sorted by ``_sort_key`` on their points
    brought to one common denominator, in integers.
    """
    m = len(normals[0])
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    start = _first_basis(normals)
    first = _vertex(normals, offsets, start, identity)
    if min(first[3]) < 0:
        start, first = _phase_one(normals, offsets, start, first[3])
    det, _, point, slacks = first
    tight = [j + 1 for j, slack in enumerate(slacks) if slack == 0]
    if len(tight) > m:
        raise NonSimpleError([Fraction(c, abs(det)) for c in point], tight)

    seen = {start}
    walked = set()  # (vertex, facet): the edge that leaves the facet there is tested
    queue = deque([(start, first)])
    charts = []
    while queue:
        active, vertex = queue.popleft()
        det, inverse, point, slacks = vertex
        charts.append(VertexChart(active, det, tuple(map(tuple, inverse)), tuple(point)))
        sign = 1 if det > 0 else -1
        outside = [j for j in range(len(normals)) if j not in active]
        for i in range(m):
            if (active, active[i]) in walked:
                continue
            direction = [-sign * row[i] for row in inverse]
            blocking, rates = _ratio_test(normals, slacks, direction, outside)
            if not blocking:
                g = gcd(*direction)
                raise UnboundedError(c // g for c in direction)
            others = (*active[:i], *active[i + 1 :])
            if len(blocking) > 1:
                # the edge ends at P / D + (slack / rate) direction / D
                slack, rate = slacks[blocking[0]], rates[blocking[0]]
                scale = abs(det) * rate
                meet = [Fraction(p * rate + slack * e, scale) for p, e in zip(point, direction)]
                raise NonSimpleError(meet, sorted(j + 1 for j in (*others, *blocking)))
            neighbour = tuple(sorted((*others, blocking[0])))
            # the same edge leaves the entering facet at the neighbour
            walked.add((neighbour, blocking[0]))
            if neighbour not in seen:
                seen.add(neighbour)
                chart = _pivot(normals, vertex, active, i, blocking[0], neighbour, direction, rates)
                queue.append((neighbour, chart))
    scale = lcm(*(abs(chart.det) for chart in charts))
    return sorted(
        charts,
        key=lambda chart: _sort_key([p * (scale // abs(chart.det)) for p in chart.point]),
    )


def enumerate_vertices(spec: HalfSpaceSpec) -> list[VertexChart]:
    """One chart per vertex, in ``_sort_key`` order; raises if the family
    is degenerate.

    The edge walk (``_edge_walk``) solves the start vertex, pivots to
    every other vertex and raises when the family is empty, unbounded or
    not simple.  Irredundancy (every facet carries a vertex) is read
    from the charts.
    """
    charts = _edge_walk(spec.normals(), spec.offsets())
    used = {i for chart in charts for i in chart.active_set}
    missing = [i + 1 for i in range(spec.num_facets) if i not in used]
    if missing:
        raise RedundantFacetError(missing)
    return charts


@dataclass(frozen=True)
class DelzantReport:
    """``failures`` holds the charts of the vertices whose det is not +-1."""

    ok: bool
    failures: tuple[VertexChart, ...]

    def summary(self) -> str:
        if self.ok:
            return "all vertex determinants are +-1"
        return "; ".join(
            f"vertex {_anchor_text(f.anchor)}: det {f.det} != +-1" for f in self.failures
        )


def _anchor_text(anchor) -> str:
    parts = ", ".join(str(c) for c in anchor)
    return f"({parts})"


def validate_delzant(spec: HalfSpaceSpec, charts) -> DelzantReport:
    """Check the unimodularity condition at every vertex chart of ``spec``.

    Failures are report entries, not exceptions; structural problems
    (non-simple, unbounded, empty) raise from enumerate_vertices, which
    builds the charts.
    """
    failures = tuple(c for c in charts if c.det not in (1, -1))
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

    Requires a simple polytope, which the charts of ``enumerate_vertices``
    guarantee, but no Delzant check: each face is spanned by the vertices
    whose active sets contain its index set.
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
