"""Brute-force lattice point counting and Ehrhart interpolation.

This is the ground-truth side of every identity in the package: points of
the integer bounding box of the k-fold dilate are enumerated one by one
and classified against the facet inequalities.  One enumeration gives a
histogram of the inside points by their tight-facet bitmask, from which
the full, interior, boundary and every face count of that dilate are read.
Counts are fitted by exact interpolation, and every fit must predict one
extra count correctly before it is accepted as a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import BudgetExceededError, NotPolynomialError
from .polynomial import UniPoly
from .polytope import FaceLattice, HalfSpaceSpec, enumerate_vertices

DEFAULT_BUDGET = 10**8

REGIONS = ("full", "interior", "boundary", "face")


@dataclass(frozen=True)
class CountReport:
    k: int
    total: int
    interior: int
    boundary: int
    per_face: dict[tuple[int, ...], int] = field(default_factory=dict)


@dataclass(frozen=True)
class EhrhartPoly:
    poly: UniPoly
    kind: str

    def to_text(self) -> str:
        return self.poly.to_text()


def _bounding_box(spec: HalfSpaceSpec, k: int, charts):
    anchors = [c.anchor_ints() for c in charts]
    lows = [k * min(a[c] for a in anchors) for c in range(spec.dim)]
    highs = [k * max(a[c] for a in anchors) for c in range(spec.dim)]
    return lows, highs


def _tight_masks(normals, bounds, lows, highs) -> dict[int, int]:
    """Classify every point of the box; count the inside ones by mask.

    The box is walked one fibre at a time along the last axis.  For each
    prefix (x_0..x_{m-2}) the slack b_j - sum_{c<m-1} n_j[c] x_c of every
    facet is computed once; each point x of the fibre is then tested in
    facet order against its exact residual slack_j - n_j[m-1] x, leaving
    at the first facet it violates.  Bit j of a point's mask is set when
    the point lies on facet j.  Most inside points are interior (mask 0),
    so those are tallied in a plain counter and only boundary points touch
    the dictionary.
    """
    m = len(lows)
    histogram: dict[int, int] = {}
    interior = 0
    heads = [normal[: m - 1] for normal in normals]
    tails = [(normal[m - 1], 1 << j) for j, normal in enumerate(normals)]
    prefixes = product(*(range(lows[c], highs[c] + 1) for c in range(m - 1)))
    fibre = range(lows[m - 1], highs[m - 1] + 1)
    for prefix in prefixes:
        rows = [
            (b - sum(a * x for a, x in zip(head, prefix)), last, bit)
            for b, head, (last, bit) in zip(bounds, heads, tails)
        ]
        for x in fibre:
            tight = 0
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
                    interior += 1
    if interior:
        histogram[0] = interior
    return histogram


def _enumerate(spec: HalfSpaceSpec, k: int, budget: int, charts):
    """The tight-mask histogram of the k-fold dilate, after the budget check."""
    if charts is None:
        charts = enumerate_vertices(spec)
    lows, highs = _bounding_box(spec, k, charts)
    size = 1
    for lo, hi in zip(lows, highs):
        size *= hi - lo + 1
    if size > budget:
        raise BudgetExceededError(required=size, budget=budget)
    bounds = [k * o for o in spec.offsets()]
    return _tight_masks(spec.normals(), bounds, lows, highs)


def tight_histogram(
    spec: HalfSpaceSpec, k: int, *, budget: int = DEFAULT_BUDGET, charts=None
) -> dict[int, int]:
    """Lattice points of the k-fold dilate, counted by tight-facet bitmask.

    One enumeration of the bounding box (checked against ``budget``) with
    the same naive classifier as ``count_points``; every region of the
    dilate can then be read off with ``read_count``.  On a simple polytope
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
    enumeration, so a count from here is independent of any histogram
    another caller holds.
    """
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
    return read_count(_enumerate(spec, k, budget, charts), region, face)


def count_report(histogram: dict[int, int], lattice: FaceLattice, k: int) -> CountReport:
    """Counts of the k-fold dilate, its interior and boundary, and every
    proper face, all read from the dilate's tight-mask histogram."""
    total = read_count(histogram, "full")
    interior = read_count(histogram, "interior")
    per_face = {
        rec.active_set: read_count(histogram, "face", rec.active_set)
        for rec in lattice.proper_faces()
    }
    return CountReport(
        k=k,
        total=total,
        interior=interior,
        boundary=total - interior,
        per_face=per_face,
    )


def interpolate_counts(counts, degree: int, kind: str) -> EhrhartPoly:
    """Fit ``degree`` from counts at k = 1..degree+1 and verify at degree+2.

    ``counts`` is a callable k -> int.  The verification failure means the
    counts do not follow a polynomial of that degree, which for lattice
    input always signals a bug.
    """
    nodes = [(k, counts(k)) for k in range(1, degree + 2)]
    poly = UniPoly.interpolate(nodes)
    probe = degree + 2
    predicted = poly.evaluate(probe)
    actual = counts(probe)
    if predicted != actual:
        raise NotPolynomialError(
            f"{kind} counts are not a degree-{degree} polynomial: "
            f"predicted {predicted} at k={probe}, counted {actual}"
        )
    return EhrhartPoly(poly=poly, kind=kind)


def ehrhart_interpolate(
    spec: HalfSpaceSpec,
    kind: str = "full",
    *,
    budget: int = DEFAULT_BUDGET,
    charts=None,
) -> EhrhartPoly:
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
