"""Exact lattice point counting and Ehrhart interpolation.

Two classifiers count the lattice points of the integer bounding box of
the k-fold dilate, each into a histogram of the inside points by their
tight-facet bitmask, from which the full, interior, boundary and every
face count of that dilate are read.  The fibre-interval kernel
(``_interval_masks``) settles each fibre along the last axis by
intersecting the facets' half-lines; it serves ``count_points``,
``tight_histogram`` and ``ehrhart_interpolate``.  The per-point
classifier (``_tight_masks``) tests every point of the box against the
facets one by one; it serves only ``brute_count``, the brute-force
oracle, and shares no classifying code with the kernel.  Counts are
fitted by exact interpolation (integer forward differences), and every
fit must predict one extra count correctly before it is accepted as a
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import BudgetExceededError, NotPolynomialError
from .polynomial import UniPoly
from .polytope import FaceLattice, HalfSpaceSpec, enumerate_vertices

DEFAULT_BUDGET = 10**8

REGIONS = ("full", "interior", "boundary", "face")


@dataclass(frozen=True)
class CountReport:
    total: int
    interior: int
    boundary: int
    per_face: dict[tuple[int, ...], int] = field(default_factory=dict)


def _bounding_box(spec: HalfSpaceSpec, k: int, charts):
    anchors = [c.anchor_ints() for c in charts]
    lows = [k * min(a[c] for a in anchors) for c in range(spec.dim)]
    highs = [k * max(a[c] for a in anchors) for c in range(spec.dim)]
    return lows, highs


def _tight_masks(normals, bounds, lows, highs) -> dict[int, int]:
    """Classify every point of the box; count the inside ones by mask.

    The box is walked as nested loops over the prefix coordinates
    x_0..x_{m-2}, down to one fibre along the last axis.  Each level holds
    the slack b_j - sum n_j[c] x_c of every facet over the coordinates
    fixed so far; a step of coordinate c subtracts column c of the normals,
    so a prefix costs O(d), not d dot products.  A facet with n_j[m-1] = 0
    has the same residual at every point of a fibre, so it is settled once
    per fibre: a negative slack puts the whole fibre outside, a zero slack
    puts its bit in every point's mask.  Each point x of the fibre is then
    tested against every other facet, in facet order, by its exact residual
    slack_j - n_j[m-1] x, leaving at the first facet it violates.  Bit j of
    a point's mask is set when the point lies on facet j.  Most inside
    points are interior (mask 0), so those are tallied in a plain counter
    and only boundary points touch the dictionary.
    """
    m = len(lows)
    histogram: dict[int, int] = {}
    interior = 0
    columns = [[normal[c] for normal in normals] for c in range(m - 1)]
    parallel = [(j, 1 << j) for j, n in enumerate(normals) if n[m - 1] == 0]
    crossing = [(j, n[m - 1], 1 << j) for j, n in enumerate(normals) if n[m - 1]]
    fibre = range(lows[m - 1], highs[m - 1] + 1)

    def walk_fibre(slacks):
        nonlocal interior
        base = 0
        for j, bit in parallel:
            slack = slacks[j]
            if slack < 0:
                return
            if slack == 0:
                base |= bit
        rows = [(slacks[j], last, bit) for j, last, bit in crossing]
        inside = 0
        for x in fibre:
            tight = base
            for slack, last, bit in rows:
                r = slack - last * x
                if r < 0:
                    break
                if r == 0:
                    tight |= bit
            else:
                if tight:
                    histogram[tight] = histogram.get(tight, 0) + 1
                else:
                    inside += 1
        interior += inside

    def walk(c, slacks):
        if c == m - 1:
            walk_fibre(slacks)
            return
        column = columns[c]
        slacks = [s - a * lows[c] for s, a in zip(slacks, column)]
        for _ in range(lows[c], highs[c] + 1):
            walk(c + 1, slacks)
            slacks = [s - a for s, a in zip(slacks, column)]

    walk(0, list(bounds))
    if interior:
        histogram[0] = interior
    return histogram


def _interval_masks(normals, bounds, lows, highs) -> dict[int, int]:
    """Count the inside points of the box by mask, one fibre interval at a time.

    The prefix walk is the one ``_tight_masks`` makes, and facets parallel
    to the last axis are settled once per fibre the same way, into the
    fibre's ``base`` mask.  A fibre's points are never visited: each
    crossing facet j, with last coefficient a = n_j[m-1] != 0 and slack s
    over the prefix, bounds the last coordinate x by a half-line, x <=
    floor(s/a) when a > 0 and x >= ceil(s/a) when a < 0, and is tight only
    at x = s/a, when a divides s.  The half-lines and the box's range meet
    in [lo, hi].  Every inside point satisfies a x <= s, so a tight x of
    a facet with a > 0 lies in [lo, hi] only as hi, and one with a < 0
    only as lo.  So the fibre adds one point to ``base`` | (the bits tight
    at lo), one to ``base`` | (the bits tight at hi), and the rest of
    [lo, hi] to ``base``: O(d) integer work per fibre, and no key ever
    gets a count of zero.
    """
    m = len(lows)
    histogram: dict[int, int] = {}
    columns = [[normal[c] for normal in normals] for c in range(m - 1)]
    parallel = [(j, 1 << j) for j, n in enumerate(normals) if n[m - 1] == 0]
    crossing = [(j, n[m - 1], 1 << j) for j, n in enumerate(normals) if n[m - 1]]
    first, last = lows[m - 1], highs[m - 1]

    def count_fibre(slacks):
        base = 0
        for j, bit in parallel:
            slack = slacks[j]
            if slack < 0:
                return
            if slack == 0:
                base |= bit
        lo, hi, lo_bits, hi_bits = first, last, 0, 0
        for j, a, bit in crossing:
            x, r = divmod(slacks[j], a)  # x = floor(s/a); r == 0 iff a divides s
            if a > 0:
                if x < hi:
                    hi, hi_bits = x, 0 if r else bit
                elif x == hi and not r:
                    hi_bits |= bit
            else:
                if r:
                    x += 1  # ceil(s/a)
                if x > lo:
                    lo, lo_bits = x, 0 if r else bit
                elif x == lo and not r:
                    lo_bits |= bit
        if lo > hi:
            return
        ends = (lo_bits | hi_bits,) if lo == hi else (lo_bits, hi_bits)
        plain = hi - lo + 1
        for bits in ends:
            if bits:
                plain -= 1
                key = base | bits
                histogram[key] = histogram.get(key, 0) + 1
        if plain:
            histogram[base] = histogram.get(base, 0) + plain

    def walk(c, slacks):
        if c == m - 1:
            count_fibre(slacks)
            return
        column = columns[c]
        slacks = [s - a * lows[c] for s, a in zip(slacks, column)]
        for _ in range(lows[c], highs[c] + 1):
            walk(c + 1, slacks)
            slacks = [s - a for s, a in zip(slacks, column)]

    walk(0, list(bounds))
    return histogram


def _box(spec: HalfSpaceSpec, k: int, budget: int, charts):
    """Normals, dilated offsets and bounding box of the k-fold dilate.

    The box's size is checked against ``budget`` before any work happens.
    """
    if charts is None:
        charts = enumerate_vertices(spec)
    lows, highs = _bounding_box(spec, k, charts)
    size = 1
    for lo, hi in zip(lows, highs):
        size *= hi - lo + 1
    if size > budget:
        raise BudgetExceededError(required=size, budget=budget)
    bounds = [k * o for o in spec.offsets()]
    return spec.normals(), bounds, lows, highs


def _enumerate(spec: HalfSpaceSpec, k: int, budget: int, charts):
    """The tight-mask histogram of the k-fold dilate, by the fibre kernel."""
    return _interval_masks(*_box(spec, k, budget, charts))


def tight_histogram(
    spec: HalfSpaceSpec, k: int, *, budget: int = DEFAULT_BUDGET, charts=None
) -> dict[int, int]:
    """Lattice points of the k-fold dilate, counted by tight-facet bitmask.

    One pass of the fibre kernel over the bounding box (checked against
    ``budget``), as in ``count_points``; every region of the dilate can
    then be read off with ``read_count``.  On a simple polytope
    each key is 0 or the active set of a face, as a bitmask.
    """
    if k < 1:
        raise ValueError("dilation k must be a positive integer")
    return _enumerate(spec, k, budget, charts)


def read_count(histogram: dict[int, int], region: str = "full", face=None) -> int:
    """One region's count from a tight-mask histogram.

    full is every point, interior the points of mask 0, boundary the rest;
    the face cut out by a facet index set S is the sum over masks that
    contain S (a superset sum, so an empty intersection reads zero).
    """
    if region == "full":
        return sum(histogram.values())
    if region == "interior":
        return histogram.get(0, 0)
    if region == "boundary":
        return sum(histogram.values()) - histogram.get(0, 0)
    if region == "face":
        wanted = 0
        for i in face:
            wanted |= 1 << i
        return sum(n for mask, n in histogram.items() if mask & wanted == wanted)
    raise ValueError(f"unknown region {region!r}")


def _check_count_args(spec: HalfSpaceSpec, k: int, region: str, face) -> None:
    if k < 1:
        raise ValueError("dilation k must be a positive integer")
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}")
    if region == "face":
        if face is None:
            raise ValueError("region 'face' needs a facet index set")
        for i in face:
            if not 0 <= i < spec.num_facets:
                raise ValueError(f"facet index {i} out of range")
    elif face is not None:
        raise ValueError("facet index set is only meaningful with region 'face'")


def count_points(
    spec: HalfSpaceSpec,
    k: int,
    region: str = "full",
    *,
    face=None,
    budget: int = DEFAULT_BUDGET,
    charts=None,
) -> int:
    """Exact lattice point count of the k-fold dilate (or a region of it).

    region 'face' counts the points of the face cut out by the given facet
    index set; an empty intersection simply counts zero.  The enumeration
    domain is the bounding box of the dilated vertices; its size is checked
    against ``budget`` before any work happens.  Each call runs its own
    pass of the fibre kernel, so a count from here is independent of any
    histogram another caller holds.
    """
    _check_count_args(spec, k, region, face)
    return read_count(_enumerate(spec, k, budget, charts), region, face)


def brute_count(
    spec: HalfSpaceSpec,
    k: int,
    region: str = "full",
    *,
    face=None,
    budget: int = DEFAULT_BUDGET,
    charts=None,
) -> int:
    """``count_points`` by the per-point classifier: the brute-force oracle.

    Same arguments, checks and budget as ``count_points``, but every point
    of the bounding box is classified on its own (``_tight_masks``), with
    no code shared with the fibre kernel it checks.
    """
    _check_count_args(spec, k, region, face)
    return read_count(_tight_masks(*_box(spec, k, budget, charts)), region, face)


def count_report(histogram: dict[int, int], lattice: FaceLattice) -> CountReport:
    """Counts of the k-fold dilate, its interior and boundary, and every
    proper face, all read from the dilate's tight-mask histogram."""
    total = read_count(histogram, "full")
    interior = read_count(histogram, "interior")
    per_face = {
        rec.active_set: read_count(histogram, "face", rec.active_set)
        for rec in lattice.proper_faces()
    }
    return CountReport(
        total=total,
        interior=interior,
        boundary=total - interior,
        per_face=per_face,
    )


def _forward_difference_fit(values) -> UniPoly:
    """The polynomial of degree < n through (k, values[k-1]) for k = 1..n.

    Newton's form p(k) = sum_i D^i y_1 C(k-1, i), where D^i y_1 is the
    i-th forward difference, is summed in integers over the common
    denominator (n-1)!: term i adds D^i y_1 (n-1)!/i! (k-1)(k-2)...(k-i).
    Only the final coefficients become fractions.
    """
    n = len(values)
    numerators = [0] * n
    diffs = list(values)
    falling = [1]  # (k-1)(k-2)...(k-i), lowest power first
    denominator = scale = factorial(n - 1)  # scale is (n-1)!/i!
    for i in range(n):
        lead = diffs[0] * scale
        for power, c in enumerate(falling):
            numerators[power] += lead * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        t = i + 1
        falling = [a - t * b for a, b in zip([0, *falling], [*falling, 0])]
        scale //= t
    return UniPoly(Fraction(c, denominator) for c in numerators)


def interpolate_counts(counts, degree: int, kind: str) -> UniPoly:
    """Fit ``degree`` from counts at k = 1..degree+1 and verify at degree+2.

    ``counts`` is a callable k -> int.  The verification failure means the
    counts do not follow a polynomial of that degree, which for lattice
    input always signals a bug.
    """
    poly = _forward_difference_fit([counts(k) for k in range(1, degree + 2)])
    probe = degree + 2
    predicted = poly.evaluate(probe)
    actual = counts(probe)
    if predicted != actual:
        raise NotPolynomialError(
            f"{kind} counts are not a degree-{degree} polynomial: "
            f"predicted {predicted} at k={probe}, counted {actual}"
        )
    return poly


def ehrhart_interpolate(
    spec: HalfSpaceSpec,
    kind: str = "full",
    *,
    budget: int = DEFAULT_BUDGET,
    charts=None,
) -> UniPoly:
    """Ehrhart polynomial of the polytope, its interior or its boundary.

    Interpolation nodes start at k = 1; k = 0 is never used because the
    boundary count of the zero dilate is set-theoretically 1 while the
    boundary polynomial's constant term need not be.  The degree+2
    prediction check takes over the role of a k = 0 node.
    """
    if charts is None:
        charts = enumerate_vertices(spec)
    m = spec.dim
    if kind in ("full", "interior"):
        degree = m
    elif kind == "boundary":
        degree = m - 1
    else:
        raise ValueError(f"unknown Ehrhart kind {kind!r}")

    counts = lambda k: count_points(spec, k, kind, budget=budget, charts=charts)
    return interpolate_counts(counts, degree, kind)
