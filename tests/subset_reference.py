"""The subset path: vertex charts from every m-subset of facets.

The reference that the edge walk of ``delzant.polytope`` is compared
against.  It solves each of the C(d, m) subsets on its own and checks,
in order: boundedness (a trivial recession cone), nonemptiness and
simplicity.  It shares the package's exact solves (``int_solve``, which
also gives its minors, and ``kernel_vector``) and its data types, and
none of the walk's code.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from delzant.errors import EmptyPolytopeError, NonSimpleError, UnboundedError
from delzant.linalg import int_solve, kernel_vector
from delzant.polytope import VertexChart, _sort_key


def kernel_direction(rows, m: int):
    """Nonzero integer kernel vector of an (m-1) x m integer matrix.

    Components are signed maximal minors (the generalized cross product).
    Returns None when the rows have rank below m-1, i.e. the minors all vanish.
    """
    if len(rows) != m - 1:
        raise ValueError("kernel_direction expects m-1 rows")
    direction = []
    for j in range(m):
        minor = [[row[c] for c in range(m) if c != j] for row in rows]
        # int_solve's det: None when the minor is singular, 1 when it is empty (m = 1)
        solved = int_solve(minor, [()] * len(minor)) if minor else (1,)
        d = solved[0] if solved else 0
        direction.append(-d if j % 2 else d)
    if all(x == 0 for x in direction):
        return None
    return tuple(direction)


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

    The cone is trivial iff the normals positively span R^m.  A rank
    deficiency gives a lineality direction immediately; otherwise the
    cone is pointed and any nonzero ray is witnessed by an extreme ray,
    i.e. by the kernel direction of some m-1 of the normals.
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


def independent_subsets(normals):
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


def subset_charts(normals, offsets):
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
        scaled = [c * abs(det) for c in point]  # |det| times the vertex: integers
        assert all(c.denominator == 1 for c in scaled), point
        charts.append(
            VertexChart(
                active_set=tuple(active),
                det=det,
                numerators=tuple(map(tuple, inverse)),
                point=tuple(c.numerator for c in scaled),
            )
        )
    return charts
