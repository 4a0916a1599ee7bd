"""Half-space polytope families, vertex charts, and the face lattice.

A polytope family is given by d primitive integer facet normals n_i and
integer offsets o_i, defining the intersection of the half-spaces
x . n_i <= o_i.  The offsets can be varied; the bundled offsets are the
anchor at which all combinatorics (and, downstream, the chamber of the
volume polynomial) are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    EmptyPolytopeError,
    NonSimpleError,
    RedundantFacetError,
    UnboundedError,
)
from .linalg import int_det, invert_exact, kernel_direction, kernel_vector, solve_exact


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
    """
    m = len(normals[0])
    d = len(normals)
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for subset in combinations(range(d), m):
        rows = [normals[i] for i in subset]
        if int_det(rows) == 0:
            continue
        point = tuple(solve_exact(rows, [offsets[i] for i in subset]))
        if point in found:
            continue
        active = []
        feasible = True
        for j in range(d):
            value = sum(normals[j][c] * point[c] for c in range(m))
            if value > offsets[j]:
                feasible = False
                break
            if value == offsets[j]:
                active.append(j)
        if feasible:
            found[point] = tuple(active)
    return sorted(found.items(), key=lambda kv: _sort_key(kv[0]))


def recession_ray(normals):
    """A nonzero integer ray of {x : x . n_i <= 0 for all i}, or None.

    The cone is trivial iff the normals positively span R^m.  A rank
    deficiency gives a lineality direction immediately; otherwise the cone
    is pointed and any nonzero ray is witnessed by an extreme ray, i.e. by
    the kernel direction of some m-1 of the normals.
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


def enumerate_vertices(spec: HalfSpaceSpec) -> list[VertexChart]:
    """One chart per vertex; raises if the family is degenerate.

    Checks, in order: boundedness (trivial recession cone), nonemptiness,
    simplicity (every vertex on exactly m facets), and irredundancy (every
    facet carries a vertex).
    """
    m = spec.dim
    d = spec.num_facets
    normals = spec.normals()
    offsets = spec.offsets()

    ray = recession_ray(normals)
    if ray is not None:
        raise UnboundedError(ray)

    points = feasible_vertex_points(normals, offsets)
    if not points:
        raise EmptyPolytopeError("the half-space intersection is empty")
    for point, active in points:
        if len(active) > m:
            raise NonSimpleError(point, [i + 1 for i in active])

    used = set()
    charts = []
    for point, active in points:
        used.update(active)
        rows = tuple(spec.facets[i].normal for i in active)
        det = int_det(rows)
        inverse = invert_exact(rows)
        charts.append(
            VertexChart(
                active_set=tuple(active),
                det=det,
                inverse=tuple(tuple(row) for row in inverse),
                anchor=tuple(point),
            )
        )
    missing = [i + 1 for i in range(d) if i not in used]
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
