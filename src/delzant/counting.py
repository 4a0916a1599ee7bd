"""Exact lattice point counting and Ehrhart interpolation.

Two classifiers count the lattice points of the integer bounding box of
the k-fold dilate, each into a histogram of the inside points by their
tight-facet bitmask, from which the full, interior, boundary and every
face count of that dilate are read: one face by a scan of the histogram
(``read_count``), every face at once from one superset-sum table
(``face_counts``).  The slab kernel (``_interval_masks``) counts a
product one factor at a time, each factor (a connected component of the
coordinates that share a facet) on its own box, and multiplies the
factors' histograms: each pair of keys ORed, their counts multiplied.
Within a factor it settles each slab of the last two axes at once:
between breakpoints of the facets' lines it sums the rows' lengths by
exact floor sums and counts their tight ends by a congruence, and only
the slab's end rows, rows where distinct lines tie and the row where the
envelopes meet go through a per-fibre interval count.  Its prefix walk
settles each distinct sub-box once: keyed by the slacks of the facets
that still vary over it, a sub-box (a slab, or a box of slabs) that
another prefix has already settled is read back, with the bits of the
facets constant over it ORed in.  The factors, their level tables and
the box of the vertices are one ``SlabPlan`` (``slab_plan``), built once
per ``Prepared`` or ``count_points`` call and kept nowhere else; a pass
at dilate k only scales the offsets and the box.  ``tight_histogram``
alone calls the kernel, for ``Prepared.histogram`` (one per dilate, read
by ``ehrhart_interpolate`` and the reports) and ``count_points`` (fresh
passes per call).  The per-point classifier (``_tight_masks``) tests
every point of the box against the facets one by one, in the input's
coordinate order; it serves only ``brute_histogram``, the brute-force
oracle, read as the kernel's histograms are, and shares no classifying
code with the kernel and reads nothing of its plan.  Both take their
box, and the one check of k, from ``_box``.

Counts are fitted by exact interpolation (integer forward differences,
``IntegerFit``), and every fit must predict one extra count correctly
before it is accepted as a polynomial.  ``interpolate_counts`` fits
through k = 1..n+1 and assumes nothing at k <= 0; ``fit_region`` fits
on both sides of zero (``interpolate_two_sided``), each histogram at k
giving the value at -k by Ehrhart-Macdonald reciprocity, so a degree-n
fit reads only the dilates k = 1..ceil(n/2)+1.  One reader,
``read_dilate``, serves ``count_points`` (fresh passes, no table) and
``Prepared.count`` (the kept histograms and face-count tables): above
k = m + 2, on a lattice polytope, it reads the count off such a fit,
so neither its time nor its budget grows with k.  A fit reads in
integers; only ``IntegerFit.poly`` builds a ``UniPoly``, and it alone
reads the lazily loaded ``polynomial``, so a count runs no
``polynomial`` in any format.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd
from operator import itemgetter, sub
from typing import NamedTuple

from . import polynomial
from .errors import DEFAULT_BUDGET, BudgetExceededError, NotPolynomialError
from .linalg import kernel_vector
from .polytope import HalfSpaceSpec, enumerate_vertices

REGIONS = ("full", "interior", "boundary", "face")


def _bounding_box(spec: HalfSpaceSpec, charts=None):
    """The least integer box around the vertices (``charts``, else
    enumerated); k times it holds the dilate's.  A vertex of a chart is
    its integer ``point`` over |det|, so the box's ends are floor and
    ceiling divisions, and are the vertices' own coordinates when every
    vertex is a lattice point."""
    if charts is None:
        charts = enumerate_vertices(spec)
    scaled = [(c.point, abs(c.det)) for c in charts]
    lows = [min(p[c] // d for p, d in scaled) for c in range(spec.dim)]
    highs = [max(-(-p[c] // d) for p, d in scaled) for c in range(spec.dim)]
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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The floor sum sum_{i=0}^{n-1} floor((a i + b) / m), for n >= 0 and m > 0.

    Euclid's reduction (Graham, Knuth and Patashnik, *Concrete
    Mathematics*, §3.5): the whole parts a // m and b // m of the slope and
    the intercept add (a // m) n(n-1)/2 and (b // m) n.  With 0 <= a, b < m
    left, the sum counts the lattice points under a line of slope a/m < 1;
    counted by columns of the swapped axes, they are the floor sum of
    (m i + (a n + b) mod m) / a over (a n + b) // m terms.  The modulus
    falls as in Euclid's algorithm, so a sum costs O(log m) steps.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _congruent_rows(a: int, b: int, s: int, first: int, last: int) -> int:
    """How many integers y in [first, last] have a | (s - b y), for a > 0.

    With g = gcd(a, b), b y = s (mod a) has no solution unless g divides s;
    otherwise its solutions are one residue class modulo a/g, reached by
    the inverse of b/g modulo a/g.
    """
    g = gcd(a, b)
    if s % g:
        return 0
    step = a // g
    root = s // g * pow(b // g, -1, step) % step
    return (last - root) // step - (first - 1 - root) // step


def _lowest_line(lines, y: int, last: int):
    """The line lowest at row y, with its bits and the last row it stays lowest.

    Each line (a, b, s, bits), with a > 0, is x = (s - b y)/a: the edge of
    a facet within a two-axis slab.  Values and slopes are compared by
    exact cross-multiplication.  A line equal to the lowest one at y with
    the same slope is the same line, and its bits merge; one equal at y
    with another slope is a tie between distinct lines, and the result is
    None, so the row goes through the per-fibre count.  Otherwise the line
    stays lowest until the first steeper line crosses it, at y_c = num/d,
    so through row ceil(y_c) - 1 = (num - 1) // d, and at most ``last``.
    Returns (a, b, s, bits, stop) or None.
    """
    a0 = None
    for a, b, s, bit in lines:
        value = s - b * y
        if a0 is None or value * a0 < value0 * a:
            a0, b0, s0, value0, bits, tie = a, b, s, value, bit, False
        elif value * a0 == value0 * a:
            if b * a0 == b0 * a:
                bits |= bit
            else:
                tie = True
    if tie:
        return None
    stop = last
    for a, b, s, _ in lines:
        d = b * a0 - b0 * a
        if d > 0:
            stop = min(stop, (s * a0 - s0 * a - 1) // d)
    return a0, b0, s0, bits, stop


def _settled_bits(slacks, facets):
    """The bits of ``facets`` tight on a whole sub-box, or None if one is violated.

    Each facet (j, bit) has a normal that is zero on every free coordinate
    of the sub-box, so its slack is the same at all of the sub-box's
    points: a negative slack leaves the sub-box empty, and a zero slack
    puts the facet's bit on every point.
    """
    bits = 0
    for j, bit in facets:
        slack = slacks[j]
        if slack < 0:
            return None
        if slack == 0:
            bits |= bit
    return bits


def _half_lines(slacks, facets, lo: int, hi: int, y: int):
    """The points x of [lo, hi] with a x + b y <= s_j for each facet (j, a,
    b, bit), a != 0, s_j = slacks[j], as (bits, count) runs, count > 0.

    Each facet bounds x by a half-line: x <= floor(s/a) when a > 0, x >=
    ceil(s/a) when a < 0, for s = s_j - b y.  A facet can be tight (a
    divides s) only at an end of the intersection, so the runs are its
    plain inside and at most its two ends, each with the bits of the
    facets tight there.
    """
    lo_bits = hi_bits = 0
    for j, a, b, bit in facets:
        x, r = divmod(slacks[j] - b * y, a)  # x = floor(s/a); r == 0 iff a divides s
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
        return ()
    if lo == hi:
        return ((lo_bits | hi_bits, 1),)
    runs, plain = [], hi - lo + 1
    for bits in (lo_bits, hi_bits):
        if bits:
            runs.append((bits, 1))
            plain -= 1
    if plain:
        runs.append((0, plain))
    return runs


def _factors(normals) -> list[list[int]]:
    """The product factors: the connected components of the coordinates,
    two joined when one normal is nonzero at both, each in the input's
    order, in the order of their least coordinates."""
    m = len(normals[0])
    block = list(range(m))  # each coordinate's factor, named by its least coordinate
    for normal in normals:
        joined = {block[c] for c, x in enumerate(normal) if x}
        if len(joined) > 1:
            block = [min(joined) if b in joined else b for b in block]
    return [[c for c in range(m) if block[c] == f] for f in sorted(set(block))]


def _slab_tables(normals):
    """The tables of ``_interval_masks``: the facets whose normal is zero,
    as (j, bit), and per factor (``_factors``) its coordinates, its facet
    ids (the normals nonzero on it, which read no other factor) and, over
    those, with facet j's bit 1 << j: per level c below the slab the
    facets settled once x_c is fixed, per level its memo's key (the reader
    of its live slacks) or None if it stores no sub-box, per prefix
    coordinate its column of the normals, and the slab's facets parallel
    to its last axis and those crossing it.
    """
    zero = [(j, 1 << j) for j, n in enumerate(normals) if not any(n)]
    factors = []
    for coords in _factors(normals):
        rows = [[n[c] for c in coords] for n in normals]
        ids = [j for j, row in enumerate(rows) if any(row)]
        rows = [rows[j] for j in ids]
        m = len(coords)
        top = max(m - 2, 0)  # the level whose sub-box is one slab (for m = 1, one fibre)
        live = [[i for i, n in enumerate(rows) if any(n[c:])] for c in range(top + 1)]
        # the facets settled at level c + 1: zero from c + 1 on, but not from c
        settled = [[(i, 1 << ids[i]) for i in live[c] if i not in live[c + 1]] for c in range(top)]
        keys = [None] * (top + 1)
        for c in range(1, top + 1):
            if kernel_vector([rows[i][:c] for i in live[c]]) is not None:
                keys[c] = itemgetter(*live[c])
        columns = [[n[c] for n in rows] for c in range(m - 1)]
        # the slab's facets, a x + b y <= s in its axes y = x_{m-2} (b = 0 for m = 1), x = x_{m-1}
        ab = [(n[m - 1], n[m - 2] if m > 1 else 0) for n in rows]
        parallel = [(i, ab[i][1], 1 << ids[i]) for i in live[top] if ab[i][0] == 0]
        crossing = [(i, a, b, 1 << ids[i]) for i, (a, b) in enumerate(ab) if a]
        factors.append((coords, ids, settled, keys, columns, parallel, crossing))
    return zero, factors


def _interval_masks(tables, bounds, lows, highs) -> dict[int, int]:
    """Count the inside points of the box by mask, one product factor at a time.

    ``tables`` are the normals' ``_slab_tables``.  A facet whose normal is
    zero has one slack over the box, settled first (``_settled_bits``).
    Every other facet reads one factor alone, so each factor is counted on
    its own facets and box (``_factor_masks``) and their histograms are
    multiplied: each pair of keys ORed, their counts multiplied.  The
    factors' facets are disjoint, so no two pairs OR to one key, and a
    product costs the sum of its factors.
    """
    zero, factors = tables
    bits = _settled_bits(bounds, zero)
    if bits is None:
        return {}
    histogram = {bits: 1}
    for coords, ids, *levels in factors:
        box = [lows[c] for c in coords], [highs[c] for c in coords]
        part = _factor_masks(levels, [bounds[j] for j in ids], *box)
        histogram = {a | b: n * p for a, n in histogram.items() for b, p in part.items()}
    return histogram


def _factor_masks(levels, bounds, lows, highs) -> dict[int, int]:
    """Count one factor's box by mask, a two-axis slab at a time.

    ``levels`` are the factor's tables, ``bounds`` its facets' offsets
    and the box its coordinates' range.  The prefix walk is the one
    ``_tight_masks`` makes, stopped one level earlier: x_0..x_{m-3} fixed
    leave a slab in y = x_{m-2} and x = x_{m-1}, where facet j with slack
    s reads b y + a x <= s (a = n_j[m-1], b = n_j[m-2]).  Facets with a =
    0 only narrow the rows of y, and can be tight only on the slab's two
    end rows.  Each other facet is a line, and bounds x by an upper edge
    floor((s - b y)/a) when a > 0 or a lower edge ceil((s - b y)/a) when
    a < 0; the box's range of x adds one edge of each kind, with no bit.
    Between breakpoints of the two envelopes one line is lowest among the
    upper edges and one highest among the lower edges, so rows where the
    first lies strictly above the second hold hi - lo + 1 points summed by
    two floor sums (``_floor_sum``).  A point tight on a line is then an
    end of its row, at the rows where a divides s - b y
    (``_congruent_rows``), and keys that line's bits; the rest key 0.  The
    slab's two end rows, a row where distinct lines tie, and a row where
    the envelopes meet go through ``fibre`` instead: each facet bounds x
    by a half-line, and the fibre's points are counted from the ends of
    their intersection (``_half_lines``), which alone can be tight.

    Each distinct sub-box x_c..x_{m-1} is settled once.  A facet whose
    normal is zero from coordinate c on has one slack over the sub-box,
    and is settled by the walk before it (``_settled_bits``); at the slab
    level these are the facets with a = b = 0.  With their bits taken out,
    the sub-box's histogram depends only on the slacks of the live facets,
    those with a nonzero entry from c on, so it is keyed by (c, live
    slacks) and each prefix ORs its settled bits back into the keys.  Two
    prefixes share a key only if they differ by a kernel vector of the
    live facets' prefix columns n_j[:c]; a level whose columns have full
    rank would only ever meet new keys, and stores nothing.  No point is
    visited, every step is exact integer arithmetic, and no key ever gets
    a count of zero.
    """
    settled, keys, columns, parallel, crossing = levels
    m, top = len(lows), len(keys) - 1
    first, last = lows[m - 1], highs[m - 1]
    memo = {}

    def add(out, key, n):
        if n:
            out[key] = out.get(key, 0) + n

    def fibre(slacks, y, out):
        """Row y of the slab (for m = 1, the factor's one fibre, at y = 0)."""
        base = 0
        for j, b, bit in parallel:
            slack = slacks[j] - b * y
            if slack < 0:
                return
            if slack == 0:
                base |= bit
        for bits, n in _half_lines(slacks, crossing, first, last, y):
            out[base | bits] = out.get(base | bits, 0) + n

    def count_slab(slacks, out):
        y, end = lows[m - 2], highs[m - 2]
        for j, b, _ in parallel:
            s = slacks[j]
            if b > 0:
                end = min(end, s // b)
            else:
                y = max(y, -(s // -b))  # ceil(s/b)
        if y > end:
            return
        fibre(slacks, y, out)
        if y == end:
            return
        fibre(slacks, end, out)
        # an upper edge is x <= (s - b y)/a; a lower edge, with a < 0, is
        # -x <= (s - b y)/|a|: the lowest line of each set is its envelope
        tops, bottoms = [(1, 0, last, 0)], [(1, 0, -first, 0)]
        for j, a, b, bit in crossing:
            if a > 0:
                tops.append((a, b, slacks[j], bit))
            else:
                bottoms.append((-a, b, slacks[j], bit))
        y += 1
        while y < end:
            top_line = _lowest_line(tops, y, end - 1)
            bottom_line = _lowest_line(bottoms, y, end - 1)
            if top_line is None or bottom_line is None:
                fibre(slacks, y, out)
                y += 1
                continue
            au, bu, su, top_bits, stop = top_line
            al, bl, sl, bottom_bits, bottom_stop = bottom_line
            stop = min(stop, bottom_stop)
            # the real gap between the envelopes, (su - bu y)/au + (sl - bl y)/al,
            # has the sign of c0 - c1 y; hi - lo + 1 is the sum of their floors, + 1
            c0, c1 = al * su + au * sl, al * bu + au * bl
            start, finish = y, stop
            if c1:
                meet, r = divmod(c0, c1)  # the envelopes meet at y = c0/c1
                if c1 > 0:
                    finish = min(stop, meet if r else meet - 1)
                else:
                    start = max(y, meet + 1)
                if not r and y <= meet <= stop:
                    fibre(slacks, meet, out)
            elif c0 <= 0:
                finish = y - 1
                if c0 == 0:  # the envelopes coincide: every row is a meeting row
                    for meet in range(y, stop + 1):
                        fibre(slacks, meet, out)
            if start <= finish:
                n = finish - start + 1
                plain = (
                    n
                    + _floor_sum(n, au, -bu, su - bu * start)
                    + _floor_sum(n, al, -bl, sl - bl * start)
                )
                for a, b, s, bits in ((au, bu, su, top_bits), (al, bl, sl, bottom_bits)):
                    if bits:
                        tight = _congruent_rows(a, b, s, start, finish)
                        plain -= tight
                        add(out, bits, tight)
                add(out, 0, plain)
            y = stop + 1

    def sub_box(c, slacks):
        """The histogram of the sub-box x_c..x_{m-1} at these slacks, over
        the bits of the facets live at level c."""
        out = {}
        if c == top:
            if m > 1:
                count_slab(slacks, out)
            else:
                fibre(slacks, 0, out)
            return out
        column = columns[c]
        slacks = [s - a * lows[c] for s, a in zip(slacks, column)]
        for _ in range(lows[c], highs[c] + 1):
            bits = _settled_bits(slacks, settled[c])
            if bits is not None:
                for key, n in walk(c + 1, slacks).items():
                    out[key | bits] = out.get(key | bits, 0) + n
            slacks = list(map(sub, slacks, column))
        return out

    def walk(c, slacks):
        if keys[c] is None:
            return sub_box(c, slacks)
        key = (c, keys[c](slacks))
        found = memo.get(key)
        if found is None:
            found = memo[key] = sub_box(c, slacks)
        return found

    return walk(0, bounds)


def _box(spec: HalfSpaceSpec, k: int, budget: int, unit):
    """Normals, dilated offsets and bounding box of the k-fold dilate.

    The one check of k, for the kernel and the oracle alike; the box is k
    times ``unit``, a box of the vertices (the slab plan's, or the
    oracle's own ``_bounding_box``), and its size is checked against
    ``budget`` before any work happens.
    """
    if k < 1:
        raise ValueError("dilation k must be a positive integer")
    lows, highs = ([k * x for x in side] for side in unit)
    size = 1
    for lo, hi in zip(lows, highs):
        size *= hi - lo + 1
    if size > budget:
        raise BudgetExceededError(required=size, budget=budget)
    bounds = [k * o for o in spec.offsets()]
    return spec.normals(), bounds, lows, highs


class SlabPlan(NamedTuple):
    """What the slab kernel reads of a polytope at every dilate: its box of
    the vertices (``unit``) and ``_slab_tables``' split into product
    factors, with each factor's level tables.  Built by ``slab_plan``; a
    pass at the k-fold dilate only scales the offsets and the box."""

    unit: tuple
    tables: tuple


def slab_plan(spec: HalfSpaceSpec, charts=None) -> SlabPlan:
    """The slab kernel's plan of ``spec``: ``Prepared`` builds one and keeps
    it for all its dilates, ``count_points`` builds one for its pass, and
    a ``tight_histogram`` call without one builds its own.  No plan is
    kept anywhere else."""
    return SlabPlan(_bounding_box(spec, charts), _slab_tables(spec.normals()))


def tight_histogram(
    spec: HalfSpaceSpec, k: int, *, budget: int = DEFAULT_BUDGET, plan=None
) -> dict[int, int]:
    """Lattice points of the k-fold dilate, counted by tight-facet bitmask.

    One pass of the slab kernel over the bounding box (checked against
    ``budget``), and the kernel's one caller: ``Prepared.histogram`` keeps
    one per k, all read through the polytope's one ``plan``, and
    ``count_points`` reads a fresh one, through a plan of its own.  Every
    region of the dilate is read off with ``read_count``; on a simple
    polytope each key is 0 or the active set of a face, as a bitmask.
    """
    if plan is None:
        plan = slab_plan(spec)
    _, bounds, lows, highs = _box(spec, k, budget, plan.unit)
    return _interval_masks(plan.tables, bounds, lows, highs)


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


def face_counts(histogram: dict[int, int]) -> dict[int, int]:
    """Every face count of a dilate, from one pass over its histogram.

    Each mask adds its count to every one of its submasks, mask 0
    included, walked by s -> (s - 1) & mask: a superset sum (the zeta
    transform of Yates 1937; Björklund, Husfeldt, Kaski and Koivisto,
    STOC 2007) over the masks present, at most #faces * 2^m steps on a
    simple polytope.  Returns {S: points whose tight mask contains S},
    S a bitmask, read by ``face_count``; ``read_count(..., "face")``
    scans the histogram for one S instead, and is the tests' oracle.
    """
    table: dict[int, int] = {}
    for mask, n in histogram.items():
        sub = mask
        while True:
            table[sub] = table.get(sub, 0) + n
            if not sub:
                break
            sub = (sub - 1) & mask
    return table


def face_count(table: dict[int, int], face) -> int:
    """The count of the face cut out by the facet index set ``face``, read
    from a ``face_counts`` table (an empty intersection reads zero)."""
    mask = 0
    for i in face:
        mask |= 1 << i
    return table.get(mask, 0)


def _check_count_args(spec: HalfSpaceSpec, region: str, face) -> None:
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


def read_dilate(histograms, charts, m: int, k: int, region="full", face=None, tables=None) -> int:
    """The count of ``region`` in the k-fold dilate of a dim-m polytope with
    vertex ``charts``: the one reader behind ``count_points`` and
    ``Prepared.count``.

    ``histograms`` is a callable j -> the tight-mask histogram of the j-fold
    dilate, and ``tables``, if given, j -> its ``face_counts`` table, read
    for a face instead of a scan of the histogram.  Above k = m + 2, where
    a pass at k outgrows every node of the fit, and only when every vertex
    is a lattice point, the count is the region's Ehrhart polynomial at k,
    fitted on both sides of zero through the dilates j = 1..h+1
    (``fit_region``); otherwise it is read off the one dilate k.  A
    polytope with a vertex off the lattice has a quasi-polynomial count,
    which no fit reads.
    """
    if k > m + 2 and all(c._lattice_point is not None for c in charts):
        return fit_region(histograms, m, region, face, tables).at(k)
    if region == "face" and tables is not None:
        return face_count(tables(k), face)
    return read_count(histograms(k), region, face)


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
    index set; an empty intersection simply counts zero.  Each call reads
    fresh ``tight_histogram`` passes, through a slab plan of its own, so a
    count from here is independent of any histogram or plan a
    ``Prepared`` holds.  The count is read by ``read_dilate``, with no
    face-count table, so a face is one scan of a histogram: above
    k = m + 2 the region's fit through passes at k = 1..h+1, otherwise
    one pass at k.  Each pass's box, the bounding box of that dilate's
    vertices, is checked against ``budget`` before any work happens, so a
    fitted count needs only its largest node's box to fit the budget.
    """
    _check_count_args(spec, region, face)
    if charts is None:
        charts = enumerate_vertices(spec)
    plan = slab_plan(spec, charts)
    histogram = cache(lambda j: tight_histogram(spec, j, budget=budget, plan=plan))
    return read_dilate(histogram, charts, spec.dim, k, region, face)


def brute_histogram(
    spec: HalfSpaceSpec, k: int, *, budget: int = DEFAULT_BUDGET, charts=None
) -> dict[int, int]:
    """``tight_histogram`` by the per-point classifier (``_tight_masks``), the
    brute-force oracle: same box and budget, no code shared with the kernel."""
    return _tight_masks(*_box(spec, k, budget, _bounding_box(spec, charts)))


class IntegerFit(NamedTuple):
    """A fitted polynomial as integer numerators, lowest power first, over
    one denominator; only ``poly`` builds fractions."""

    numerators: list[int]
    denominator: int

    def scaled(self, k: int) -> int:
        """The denominator times the value at k, by Horner's rule in integers."""
        value = 0
        for c in reversed(self.numerators):
            value = value * k + c
        return value

    def at(self, k: int) -> int:
        """The value at the integer k.  Exact: every fit here takes integer
        values at as many consecutive integers as it has coefficients, so
        it takes an integer value at every integer."""
        return self.scaled(k) // self.denominator

    def poly(self) -> polynomial.UniPoly:
        return polynomial.UniPoly(Fraction(c, self.denominator) for c in self.numerators)


def _forward_difference_fit(values, start: int = 1) -> IntegerFit:
    """The polynomial of degree < n through (start + i, values[i]) for i < n.

    Newton's form p(k) = sum_i D^i y_0 C(k - start, i), where D^i y_0 is
    the i-th forward difference, is summed in integers over the common
    denominator (n-1)!: term i adds D^i y_0 (n-1)!/i! times the product of
    (k - start - j) over j < i.
    """
    n = len(values)
    numerators = [0] * n
    diffs = list(values)
    falling = [1]  # (k - start)(k - start - 1)...(k - start - i + 1), lowest power first
    denominator = scale = factorial(n - 1)  # scale is (n-1)!/i!
    for i in range(n):
        lead = diffs[0] * scale
        for power, c in enumerate(falling):
            numerators[power] += lead * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        node = start + i
        falling = [a - node * b for a, b in zip([0, *falling], [*falling, 0])]
        scale //= i + 1
    return IntegerFit(numerators, denominator)


def _check_probe(fit: IntegerFit, probe: int, actual: int, degree: int, kind: str) -> None:
    """Raise NotPolynomialError unless ``fit`` predicts the count ``actual``
    at ``probe``, checked in integers: the fit's numerators at the probe
    against the count times its denominator."""
    predicted = fit.scaled(probe)
    if predicted != actual * fit.denominator:
        raise NotPolynomialError(
            f"{kind} counts are not a degree-{degree} polynomial: "
            f"predicted {Fraction(predicted, fit.denominator)} at k={probe}, counted {actual}"
        )


def interpolate_counts(counts, degree: int, kind: str) -> polynomial.UniPoly:
    """Fit ``degree`` from counts at k = 1..degree+1 and verify at degree+2.

    ``counts`` is a callable k -> int.  The verification failure means the
    counts do not follow a polynomial of that degree, which for lattice
    input always signals a bug.  The fit assumes nothing of its values at
    k <= 0, so it also checks the parity that ``interpolate_two_sided``
    assumes.
    """
    fit = _forward_difference_fit([counts(k) for k in range(1, degree + 2)])
    probe = degree + 2
    _check_probe(fit, probe, counts(probe), degree, kind)
    return fit.poly()


def interpolate_two_sided(pairs, zero: int, degree: int, kind: str) -> IntegerFit:
    """Fit ``degree`` through k = -h..h, h = ceil(degree/2), and verify at h+1.

    ``pairs`` is a callable k -> (value at k, value at -k), read for k =
    1..h+1, and ``zero`` the value at 0: each count at k > 0 supplies its
    value at -k too, by reciprocity (``fit_region``), so a degree-n fit
    reads h + 1 dilates instead of n + 2.  The 2h + 1 nodes fit a
    polynomial of degree up to 2h; when 2h > degree its top coefficient
    must be 0.  The probe is the value at k = h + 1, which no node read,
    checked in integers as ``interpolate_counts`` checks its own.  The fit
    assumes the values at -k; the probe and the top coefficient are its
    checks of the polynomial's form.
    """
    h = -(-degree // 2)
    above, below = [], []
    for k in range(1, h + 1):
        at_k, at_minus_k = pairs(k)
        above.append(at_k)
        below.append(at_minus_k)
    fit = _forward_difference_fit([*below[::-1], zero, *above], start=-h)
    if 2 * h > degree and fit.numerators[-1]:
        raise NotPolynomialError(
            f"{kind} counts are not a degree-{degree} polynomial: the fit through "
            f"k = -{h}..{h} has k^{2 * h} coefficient "
            f"{Fraction(fit.numerators[-1], fit.denominator)}"
        )
    probe = h + 1
    _check_probe(fit, probe, pairs(probe)[0], degree, kind)
    return fit


def fit_region(histograms, m: int, region: str = "full", face=None, tables=None) -> IntegerFit:
    """The Ehrhart polynomial of one region of a dim-m lattice polytope,
    fitted on both sides of zero (``interpolate_two_sided``).

    ``histograms`` is a callable k -> the tight-mask histogram of the
    k-fold dilate, and ``tables``, if given, k -> its ``face_counts``
    table, read for a face's count instead of a histogram scan.  Each
    histogram at k > 0 gives the value at -k by Ehrhart-Macdonald
    reciprocity, L(-k) = (-1)^dim L°(k), on the polytope or on a face
    (Beck and Robins, *Computing the Continuous Discretely*, ch. 4); for
    the boundary polynomial of Z this is Serre duality:

        region     value at -k             value at 0
        full       (-1)^m interior         1
        interior   (-1)^m full             (-1)^m
        boundary   (-1)^(m-1) boundary     1 - (-1)^m
        face S     (-1)^f hist[S]          1

    The closed face cut out by the facet set S has dimension f = m - |S|
    on a simple polytope, and its relative interior is hist[S], the points
    whose tight set is exactly S.  A facet set that cuts out no face (no
    point at k = 1, where every vertex is a lattice point) reads the zero
    polynomial and is not fitted.
    """
    sign = (-1) ** m
    if region == "face":
        mask = 0
        for i in face:
            mask |= 1 << i
        if tables is None:
            closed = lambda k: read_count(histograms(k), "face", face)
        else:
            closed = lambda k: face_count(tables(k), face)
        if not closed(1):
            return IntegerFit([], 1)
        f = m - bin(mask).count("1")
        pairs = lambda k: (closed(k), (-1) ** f * histograms(k).get(mask, 0))
        return interpolate_two_sided(pairs, 1, f, region)

    def pairs(k):
        histogram = histograms(k)
        total, interior = sum(histogram.values()), histogram.get(0, 0)
        if region == "full":
            return total, sign * interior
        if region == "interior":
            return interior, sign * total
        return total - interior, -sign * (total - interior)

    zero = {"full": 1, "interior": sign, "boundary": 1 - sign}[region]
    return interpolate_two_sided(pairs, zero, m - (region == "boundary"), region)


def ehrhart_interpolate(prep, kind: str = "full") -> polynomial.UniPoly:
    """Ehrhart polynomial of the polytope, its interior or its boundary.

    Fitted on both sides of zero (``fit_region``) through the counts of
    ``kind`` read off ``prep.histogram(k)``, the polytope's one histogram
    per dilate, at k = 1..h+1, h = ceil(n/2) for degree n.  The value at
    k = 0 is not counted but known (1, (-1)^m or 1 - (-1)^m): the boundary
    count of the zero dilate is set-theoretically 1, while the boundary
    polynomial's constant term is 1 - (-1)^m.  The fit assumes
    reciprocity; its probe at k = h + 1 checks the polynomial's form.
    Every vertex must be a lattice point (ValueError otherwise).
    """
    if kind not in ("full", "interior", "boundary"):
        raise ValueError(f"unknown Ehrhart kind {kind!r}")
    for chart in prep.charts:
        chart.anchor_ints()  # raises off the lattice, where counts are quasi-polynomials
    return fit_region(prep.histogram, prep.spec.dim, kind).poly()
