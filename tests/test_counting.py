import json
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant.cli import main
from delzant.corpus import DELZANT_CORPUS, corpus_text, load
import delzant.counting as counting_mod
from delzant.counting import (
    _forward_difference_fit,
    brute_histogram,
    count_points,
    ehrhart_interpolate,
    face_count,
    face_counts,
    fit_face,
    interpolate_counts,
    interpolate_two_sided,
    read_count,
    read_region,
    tight_histogram,
)
from delzant.errors import BudgetExceededError, DisagreementError, NotPolynomialError
from delzant.hilbert import cy_hilbert_polynomial
from delzant.linalg import ring_det
from delzant.operators import symbolic_ehrhart
from delzant.polynomial import UniPoly
from delzant.polytope import HalfSpaceSpec, enumerate_vertices
from delzant.prepared import Prepared
from generators import blow_up, product_spec


class TestCountPoints:
    def test_simplex_examples(self):
        spec, simplex_3 = load("simplex_2"), load("simplex_3")
        charts = Prepared(spec).charts
        assert count_points(spec, 1, "full", charts=charts) == 3
        assert count_points(spec, 3, "interior", charts=charts) == 1
        assert count_points(simplex_3, 1, "boundary", charts=Prepared(simplex_3).charts) == 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_unit_simplex_binomial(self, m, k):
        spec = load(f"simplex_{m}") if m > 1 else load("segment_unit")
        assert count_points(spec, k, "full", charts=Prepared(spec).charts) == comb(k + m, m)

    def test_face_region(self, prepare):
        p = prepare("simplex_2")
        # the hypotenuse x + y = k carries k + 1 points
        assert count_points(p.spec, 4, "face", face=(2,), charts=p.charts) == 5
        # empty intersection counts zero without complaint
        assert count_points(p.spec, 2, "face", face=(0, 1, 2), charts=p.charts) == 0

    def test_face_region_argument_errors(self):
        spec = load("simplex_2")
        charts = Prepared(spec).charts
        with pytest.raises(ValueError):
            count_points(spec, 1, "face", charts=charts)
        with pytest.raises(ValueError):
            count_points(spec, 1, "face", face=(7,), charts=charts)
        with pytest.raises(ValueError):
            count_points(spec, 1, "full", face=(0,), charts=charts)
        with pytest.raises(ValueError):
            count_points(spec, 1, "everything", charts=charts)
        # the kernel and the oracle share one check of k
        for count in (count_points, brute_histogram):
            with pytest.raises(ValueError):
                count(spec, 0, charts=charts)

    @pytest.mark.parametrize("k", [2, 40])
    @pytest.mark.parametrize(
        "region, face",
        [("face", (99,)), ("full", (0,)), ("face", None), ("bogus", None)],
        ids=["face-out-of-range", "face-with-full", "face-without-set", "unknown-region"],
    )
    def test_prepared_count_checks_its_arguments_as_count_points_does(self, region, face, k):
        # one check behind both doors, at a dilate read directly (k = 2) and
        # at one read off a fit (k = 40 > m + 2)
        spec = load("cube_unit")
        with pytest.raises(ValueError) as direct:
            count_points(spec, k, region, face=face, charts=Prepared(spec).charts)
        with pytest.raises(ValueError) as prepared:
            Prepared(spec).count(k, region, face)
        assert str(prepared.value) == str(direct.value)

    def test_the_box_reaches_vertices_off_the_lattice_on_both_sides(self):
        # the triangle with the vertex (1/2, 0) and its mirror image, with
        # (-1/2, 0): each box rounds its vertex outward, so a dilate's box
        # holds the point (k/2, 0) or (-k/2, 0) at every even k
        for sign in (1, -1):
            spec = HalfSpaceSpec(2, [((-sign, 0), 0), ((0, -1), 0), ((2 * sign, 1), 1)])
            charts = Prepared(spec).charts
            low, high = (0, 1) if sign == 1 else (-1, 0)
            assert counting_mod._bounding_box(spec, charts) == ([low, 0], [high, 1])
            # floor((k + 2)^2 / 4) points at k, from the kernel and the oracle
            expected = [2, 4, 6, 9, 12, 16]
            assert [count_points(spec, k, charts=charts) for k in range(1, 7)] == expected
            brute = [read_count(brute_histogram(spec, k, charts=charts)) for k in range(1, 7)]
            assert brute == expected

    def test_budget_exceeded_reports_required_size(self):
        spec = load("cube_2")
        charts = Prepared(spec).charts
        with pytest.raises(BudgetExceededError) as err:
            brute_histogram(spec, 50, charts=charts, budget=1000)
        assert err.value.required == 101**3
        assert err.value.budget == 1000
        # k = 50 is read off the fit through the passes at k = 1, 2, 3, so
        # only the largest node's box, 7^3, must fit the budget
        assert count_points(spec, 50, charts=charts, budget=7**3) == 101**3
        with pytest.raises(BudgetExceededError) as err:
            count_points(spec, 50, charts=charts, budget=7**3 - 1)
        assert (err.value.required, err.value.budget) == (7**3, 7**3 - 1)


def _mask(active_set):
    return sum(1 << i for i in active_set)


class TestTightHistogram:
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reads_equal_separate_enumerations(self, name, k, prepare):
        p = prepare(name)
        histogram = tight_histogram(p.spec, k, plan=p.slab_plan)
        brute = brute_histogram(p.spec, k, charts=p.charts)
        for region in ("full", "interior", "boundary"):
            assert read_count(histogram, region) == read_count(brute, region)
        # every face, plus facet sets that cut out nothing and the empty set
        facet_sets = {rec.active_set for rec in p.lattice.faces.values()}
        facet_sets.add(tuple(range(p.spec.num_facets)))
        facet_sets.update(
            (i, j)
            for i in range(p.spec.num_facets)
            for j in range(i + 1, p.spec.num_facets)
        )
        for face in sorted(facet_sets):
            assert read_count(histogram, "face", face) == read_count(brute, "face", face), face
        assert read_count(histogram, "face", ()) == read_count(histogram, "full")

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_keys_are_face_active_sets(self, name, prepare):
        p = prepare(name)
        active = {_mask(key) for key in p.lattice.faces}
        for k in (1, 2, 3):
            histogram = tight_histogram(p.spec, k, plan=p.slab_plan)
            assert set(histogram) <= active
            assert all(n > 0 for n in histogram.values())
        # a lattice polytope of dim m has an interior point at k = m + 1, and so
        # has each face in its relative interior: then every face is a key
        k = p.spec.dim + 1
        assert set(tight_histogram(p.spec, k, plan=p.slab_plan)) == active

    def test_argument_errors(self):
        spec, cube = load("simplex_2"), load("cube_2")
        with pytest.raises(ValueError):
            tight_histogram(spec, 0, plan=Prepared(spec).slab_plan)
        with pytest.raises(BudgetExceededError):
            tight_histogram(cube, 50, plan=Prepared(cube).slab_plan, budget=1000)
        with pytest.raises(ValueError):
            read_count({0: 1}, "everything")

    def test_hilbert_builds_one_histogram_per_dilation(self, monkeypatch):
        built = []
        original = counting_mod.tight_histogram

        def recording(spec, k, **kwargs):
            built.append(k)
            return original(spec, k, **kwargs)

        monkeypatch.setattr(counting_mod, "tight_histogram", recording)
        cy_hilbert_polynomial(Prepared(load("cube_unit")))
        # m = 3: the facets' degree-2 fits need k = 1..3 and the probe k = 4
        assert built == [1, 2, 3, 4]


def _reference_histogram(spec, k):
    """The per-point classifier: a full dot product for every facet.

    It walks the bounding box of the dilated vertices point by point and
    shares nothing with the fibre kernel behind ``tight_histogram`` or
    with the odometer walk behind ``brute_histogram``.
    """
    anchors = [chart.anchor_ints() for chart in enumerate_vertices(spec)]
    ranges = [
        range(k * min(a[c] for a in anchors), k * max(a[c] for a in anchors) + 1)
        for c in range(spec.dim)
    ]
    normals = spec.normals()
    bounds = [k * o for o in spec.offsets()]
    histogram = {}
    for point in product(*ranges):
        tight = 0
        for j, normal in enumerate(normals):
            value = sum(n * x for n, x in zip(normal, point))
            if value > bounds[j]:
                break
            if value == bounds[j]:
                tight |= 1 << j
        else:
            histogram[tight] = histogram.get(tight, 0) + 1
    return histogram


_MULTI_DIM_CORPUS = tuple(n for n in DELZANT_CORPUS if load(n).dim >= 2)


@st.composite
def _unimodular_images(draw):
    """A corpus member of dim 2-4 under a GL_m(Z) map and a lattice translation.

    Each normal n becomes n V, where V is a product of elementary shears
    (add c times column i to another column j) and, if drawn, the negation
    of axis 0; each offset b becomes b + (n V) . shift.  The image is
    V^{-1} P + shift, with its facets in the same order.
    """
    spec = load(draw(st.sampled_from(_MULTI_DIM_CORPUS)))
    m = spec.dim
    axis, step = st.integers(0, m - 1), st.integers(1, m - 1)
    shears = draw(st.lists(st.tuples(axis, step, st.integers(-3, 3)), max_size=3))
    flip = draw(st.booleans())
    shift = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    facets = []
    for normal, offset in spec.facets:
        row = list(normal)
        for i, step, c in shears:
            row[(i + step) % m] += c * row[i]
        if flip:
            row[0] = -row[0]
        facets.append((row, offset + sum(a * t for a, t in zip(row, shift))))
    return spec, HalfSpaceSpec(m, facets)


def _box_3d(size, *cuts):
    facets = [([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0)]
    facets += [([1, 0, 0], size), ([0, 1, 0], size), ([0, 0, 1], size)]
    return HalfSpaceSpec(3, facets + list(cuts))


def _polygon(*facets):
    return HalfSpaceSpec(2, facets)


# inputs whose fibres meet cases the corpus does not: named for the case
_KERNEL_EDGE_CASES = {
    # last coefficients -3 and 2, then 3 and -2 (the mirror image), with
    # slacks they do not divide at most prefixes: (0,0), (0,5), (6,2)
    "last_coefficients_-3_2": _polygon(([-1, 0], 0), ([1, -3], 0), ([1, 2], 10)),
    "last_coefficients_3_-2": _polygon(([-1, 0], 0), ([1, 3], 0), ([1, -2], 10)),
    # x, y in [0, 4] with x + y in [2, 6]: on the fibre x = 3, y <= 4 is
    # tight at y = 4 > hi = 3, and on x = 0, y >= 0 is tight at y = 0 < lo = 2
    "tight_outside_interval": _polygon(
        ([-1, 0], 0), ([0, -1], 0), ([-1, -1], -2), ([1, 0], 4), ([0, 1], 4), ([1, 1], 6)
    ),
    # x/4 <= y <= 3x/4: the fibre x = 1 holds no lattice point
    "crossing_facets_empty_a_fibre": _polygon(([1, -4], 0), ([-3, 4], 0), ([1, 0], 4)),
    # the first case translated by (-7, -9): every coordinate is negative
    "negative_coordinates": _polygon(([-1, 0], 7), ([1, -3], 20), ([1, 2], -15)),
    # 3-D inputs for the slab walk, in coordinates (u, y, x): each slab fixes
    # u, and its lines are the facets with an x coefficient.
    #
    # [0,4]^3 cut by y + x <= 6: in every slab the cut meets x <= 4 at the
    # lattice row y = 2, a tie of two distinct upper lines
    "tie_at_integer_row": _box_3d(4, ([0, 1, 1], 6)),
    # a roof over u in [0, 4]: u + y + x <= 6 and -u + y + x <= 2 both read
    # y + x <= 4 in the slab u = 2, one line carrying the bits of two facets
    "two_facets_one_line": HalfSpaceSpec(
        3,
        [([-1, 0, 0], 0), ([1, 0, 0], 4), ([0, -1, 0], 0), ([0, 0, -1], 0)]
        + [([1, 1, 1], 6), ([-1, 1, 1], 2)],
    ),
    # the triangle y >= 0, y/3 <= x <= (10 - y)/2 times u in [0, 1], sheared
    # by y -> y + 2u: in the slab u = 0 its edges meet at the lattice point
    # (y, x) = (6, 2), while the slab's rows run on to y = 8
    "envelopes_meet_at_lattice_row": HalfSpaceSpec(
        3,
        [([-1, 0, 0], 0), ([1, 0, 0], 1), ([2, -1, 0], 0)]
        + [([-2, 1, -3], 0), ([-2, 1, 2], 10)],
    ),
    # [0,4]^3 cut by u + 2y <= 10 and u - 2y <= 2: no x coefficient, so the
    # cuts end each slab's rows, at floor((10 - u)/2) and ceil((u - 2)/2)
    "rows_ended_by_facets": _box_3d(4, ([1, 2, 0], 10), ([1, -2, 0], 2)),
    # the quadrilateral y, x >= 0, y + 3x <= 24, y - 2x <= 4 times u in
    # [0, 2], sheared by y -> y + u: its last two edges are tight every third
    # and every second row
    "tight_every_third_or_second_row": HalfSpaceSpec(
        3,
        [([-1, 0, 0], 0), ([1, 0, 0], 2), ([1, -1, 0], 0), ([0, 0, -1], 0)]
        + [([-1, 1, 3], 24), ([-1, 1, -2], 4)],
    ),
}


class TestFibreKernel:
    """``tight_histogram`` against the per-point reference classifier."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_EDGE_CASES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_edge_cases_match_reference(self, name, k):
        spec = _KERNEL_EDGE_CASES[name]
        histogram = tight_histogram(spec, k, plan=Prepared(spec).slab_plan)
        assert histogram == _reference_histogram(spec, k)
        assert all(n > 0 for n in histogram.values())

    def test_edge_cases_reach_their_case(self):
        cases = _KERNEL_EDGE_CASES
        lasts = {n[-1] for name in cases for n in cases[name].normals()}
        assert {-3, -2, 2, 3} <= lasts
        # the fibres x = 0..4 hold 1, 0, 1, 2 and 3 points
        thin = cases["crossing_facets_empty_a_fibre"]
        charts = Prepared(thin).charts
        assert count_points(thin, 1, "face", face=(2,), charts=charts) == 3
        assert count_points(thin, 1, charts=charts) == 1 + 0 + 1 + 2 + 3
        # the translate has the same histogram as its original
        shifted, original = (
            Prepared(cases[name]) for name in ("negative_coordinates", "last_coefficients_-3_2")
        )
        assert all(c < 0 for chart in shifted.charts for c in chart.anchor)
        assert tight_histogram(shifted.spec, 2, plan=shifted.slab_plan) == tight_histogram(
            original.spec, 2, plan=original.slab_plan
        )

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_corpus_histograms_match_reference(self, name, k):
        spec = load(name)
        histogram = tight_histogram(spec, k, plan=Prepared(spec).slab_plan)
        assert histogram == _reference_histogram(spec, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parallel_facet_settles_whole_fibres(self, k):
        # the edge blow-up of cube_2: [0,2]^3 cut by x0 + x1 <= 3, whose normal
        # has last coordinate 0.  Its box has fibres the cut puts wholly
        # outside, prefix (2k, 2k), and fibres lying on it, such as (2k, k).
        facets = [([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0)]
        facets += [([1, 0, 0], 2), ([0, 1, 0], 2), ([0, 0, 1], 2), ([1, 1, 0], 3)]
        spec = HalfSpaceSpec(3, facets)
        histogram = tight_histogram(spec, k, plan=Prepared(spec).slab_plan)
        assert histogram == _reference_histogram(spec, k)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pair=_unimodular_images(), k=st.integers(1, 2))
    def test_unimodular_images_match_reference(self, pair, k):
        spec, image = pair
        prepared_image = Prepared(image)
        charts = prepared_image.charts
        histogram = tight_histogram(image, k, plan=prepared_image.slab_plan)
        assert histogram == _reference_histogram(image, k)
        # a lattice bijection that keeps the facet order keeps every mask count
        assert histogram == tight_histogram(spec, k, plan=Prepared(spec).slab_plan)
        # the kernel's counts against the per-point oracle's
        brute = brute_histogram(image, k, charts=charts)
        for region in ("full", "interior", "boundary"):
            assert count_points(image, k, region, charts=charts) == read_count(brute, region)
        face = (0, image.num_facets - 1)
        got = count_points(image, k, "face", face=face, charts=charts)
        assert got == read_count(brute, "face", face)


def _record_slab_helpers(monkeypatch, settled=None):
    """Record each result of the kernel's line and congruence helpers, and
    into ``settled``, when given, each of its ``_settled_bits`` tests."""
    lines, congruences = [], []
    lowest_line, congruent_rows = counting_mod._lowest_line, counting_mod._congruent_rows
    settled_bits = counting_mod._settled_bits

    def recording_settled_bits(slacks, facets):
        result = settled_bits(slacks, facets)
        settled.append(result)
        return result

    def recording_lowest_line(lines_, y, last):
        result = lowest_line(lines_, y, last)
        lines.append((y, result))
        return result

    def recording_congruent_rows(a, b, s, first, last):
        result = congruent_rows(a, b, s, first, last)
        congruences.append((a, last - first + 1, result))
        return result

    monkeypatch.setattr(counting_mod, "_lowest_line", recording_lowest_line)
    monkeypatch.setattr(counting_mod, "_congruent_rows", recording_congruent_rows)
    if settled is not None:
        monkeypatch.setattr(counting_mod, "_settled_bits", recording_settled_bits)
    return lines, congruences


def _meet_at_lattice_row(y, top, bottom):
    """Whether the two lines found for row y give one lattice point at a
    row of their common segment: the upper edge's x equals the lower edge's."""
    (au, bu, su, _, stop), (al, bl, sl, _, bottom_stop) = top, bottom
    for row in range(y, min(stop, bottom_stop) + 1):
        hi, r = divmod(su - bu * row, au)
        minus_lo, r_lo = divmod(sl - bl * row, al)
        if not r and not r_lo and hi == -minus_lo:
            return True
    return False


def _kernel(normals, bounds, lows, highs):
    """The slab kernel on any box, through the normals' own tables."""
    return counting_mod._interval_masks(counting_mod._slab_tables(normals), bounds, lows, highs)


class TestSlabKernel:
    """The slab walk of ``_interval_masks`` and its exact helpers."""

    @pytest.mark.parametrize("seed", range(8))
    def test_half_space_families_match_per_point_classifier(self, seed):
        # any half-space family, polytope or not, over boxes that reach into
        # negative coordinates
        rng = random.Random(seed)
        for _ in range(150):
            m, d = rng.randint(2, 4), rng.randint(1, 7)
            normals = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(d)]
            bounds = [rng.randint(-8, 12) for _ in range(d)]
            lows = [rng.randint(-6, 2) for _ in range(m)]
            highs = [lo + rng.randint(0, (14, 7, 4)[m - 2]) for lo in lows]
            box = (normals, bounds, lows, highs)
            assert _kernel(*box) == counting_mod._tight_masks(*box), box

    def test_floor_sum_matches_loop(self):
        rng = random.Random(0)
        for _ in range(3000):
            n, m = rng.randint(0, 15), rng.randint(1, 12)
            a, b = rng.randint(-40, 40), rng.randint(-60, 60)
            assert counting_mod._floor_sum(n, m, a, b) == sum(
                (a * i + b) // m for i in range(n)
            ), (n, m, a, b)

    def test_congruent_rows_matches_loop(self):
        for a, b, s in product(range(1, 7), range(-6, 7), range(-7, 8)):
            for first, last in ((-5, 6), (0, 0), (3, 2), (-1, 10)):
                expected = sum((s - b * y) % a == 0 for y in range(first, last + 1))
                assert counting_mod._congruent_rows(a, b, s, first, last) == expected

    def test_slab_cases_reach_their_case(self, monkeypatch):
        cases = _KERNEL_EDGE_CASES
        lines, congruences = _record_slab_helpers(monkeypatch)
        reached = {}
        for name in sorted(n for n in cases if cases[n].dim == 3):
            del lines[:], congruences[:]
            histogram = tight_histogram(cases[name], 1, plan=Prepared(cases[name]).slab_plan)
            reached[name] = (list(lines), list(congruences), histogram)
        # a tie of distinct lines makes a row's lowest line None
        lines_, _, _ = reached["tie_at_integer_row"]
        assert (2, None) in lines_
        # one lowest line carries the bits of both roof facets 4 and 5
        lines_, _, _ = reached["two_facets_one_line"]
        assert any(line and line[3] == 0b110000 for _, line in lines_)
        # an upper and a lower line found for one row meet at a lattice row
        lines_, _, histogram = reached["envelopes_meet_at_lattice_row"]
        pairs = zip(lines_[0::2], lines_[1::2])
        assert any(
            top and bottom and _meet_at_lattice_row(y, top, bottom)
            for (y, top), (_, bottom) in pairs
        )
        # the vertices (0, 6, 2) and (1, 8, 2), on both edges and on u = 0 or u = 1
        assert histogram[0b11001] == histogram[0b11010] == 1
        # the facets that end the rows have n[2] = 0, n[1] = +-2, and points
        spec = cases["rows_ended_by_facets"]
        assert [n[1:] for n in spec.normals()[6:]] == [(2, 0), (-2, 0)]
        _, _, histogram = reached["rows_ended_by_facets"]
        assert read_count(histogram, "face", (6,)) == read_count(histogram, "face", (7,)) == 10
        # last coefficients 3 and -2, tight on some rows of a segment but not all
        _, congruences_, _ = reached["tight_every_third_or_second_row"]
        assert {2, 3} <= {a for a, rows, tight in congruences_ if 0 < tight < rows}


def _unit_cube(m):
    facets = []
    for c in range(m):
        axis = [int(i == c) for i in range(m)]
        facets += [([-x for x in axis], 0), (axis, 1)]
    return HalfSpaceSpec(m, facets)


def _product_or_shear_family(rng):
    """A half-space family whose prefix columns often have kernel vectors.

    The facets of a product each read one block of the coordinates, so a
    later block's sub-boxes repeat along the earlier one; a shear adds t
    times one coordinate's column to a later one's.  Axis facets tight at
    the ends of the box, and sometimes a zero normal, are added after it.
    """
    m = rng.randint(3, 5)
    lows = [rng.randint(-4, 1) for _ in range(m)]
    highs = [lo + rng.randint(0, (7, 4, 2)[m - 3]) for lo in lows]
    normals, bounds = [], []
    cut = rng.randint(1, m - 1)
    for block in (range(cut), range(cut, m)):
        for _ in range(rng.randint(1, 3)):
            normals.append([rng.randint(-2, 2) if c in block else 0 for c in range(m)])
            bounds.append(rng.randint(-3, 8))
    if rng.random() < 0.5:
        i = rng.randrange(m - 1)
        j, t = rng.randrange(i + 1, m), rng.choice((-1, 1, 2))
        for normal in normals:
            normal[j] += t * normal[i]
    for c in rng.sample(range(m), 2):
        axis = [int(i == c) for i in range(m)]
        normals += [axis, [-x for x in axis]]
        bounds += [highs[c], -lows[c]]
    if rng.random() < 0.2:
        normals.append([0] * m)
        bounds.append(rng.choice((0, 0, 1, -1)))
    return normals, bounds, lows, highs


class TestSlabMemo:
    """The prefix walk of ``_factor_masks`` settles each distinct sub-box once."""

    @pytest.mark.parametrize(
        "spec, k, lines",
        [
            # a box's factors are its coordinates, each one fibre: no slab
            # is settled (settling all 256 slabs would take 512 calls)
            (_unit_cube(4), 15, 0),
            # the slab's key is the slack of x_0 + .. + x_3 <= 15: 31 distinct
            # values of x_0 + x_1 over the 256 slabs
            (load("simplex_4"), 15, 62),
            (load("cube_unit"), 40, 0),
            # x_0 alone moves the slack of x_0 + x_1 + x_2 <= 40: every key is
            # new, so each of the 41 slabs is settled
            (load("simplex_3"), 40, 82),
        ],
        ids=["4-cube", "simplex_4", "cube_unit", "simplex_3"],
    )
    def test_each_distinct_slab_is_settled_once(self, monkeypatch, spec, k, lines):
        found, _ = _record_slab_helpers(monkeypatch)
        p = Prepared(spec)
        histogram = tight_histogram(spec, k, plan=p.slab_plan)
        assert histogram == brute_histogram(spec, k, charts=p.charts)
        assert len(found) == lines

    @pytest.mark.parametrize("seed", range(8))
    def test_product_and_shear_families_match_per_point_classifier(self, monkeypatch, seed):
        stored = []
        kernel_vector = counting_mod.kernel_vector

        def recording(rows):
            result = kernel_vector(rows)
            stored.append(result is not None)
            return result

        monkeypatch.setattr(counting_mod, "kernel_vector", recording)
        rng = random.Random(seed)
        for _ in range(100):
            box = _product_or_shear_family(rng)
            assert _kernel(*box) == counting_mod._tight_masks(*box), box
        # levels that store their sub-boxes and levels at full rank both occur
        assert True in stored and False in stored

    def test_full_rank_levels_store_nothing(self):
        # simplex_3's slabs all have new keys, so the walk's memory must not
        # grow with their number: a store would keep one histogram per slab
        spec = load("simplex_3")
        peaks = []
        for k in (100, 1000):
            normals, *box = counting_mod._box(spec, k, 10**10, Prepared(spec).slab_plan.unit)
            tables = counting_mod._slab_tables(normals)
            tracemalloc.start()
            try:
                counting_mod._interval_masks(tables, *box)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 4096, peaks


def _permuted(spec, order):
    """``spec`` with its coordinates relabelled: coordinate i of the image is
    coordinate order[i] of ``spec``."""
    return HalfSpaceSpec(spec.dim, [(tuple(n[c] for c in order), o) for n, o in spec.facets])


class TestBlockOrder:
    """The kernel counts each product factor on its own, so its work does
    not depend on how the input labels the coordinates."""

    def test_factors_are_the_connected_coordinates_in_the_inputs_order(self):
        factors = counting_mod._factors
        # prism x segment: the triangle (0, 1), the prism's segment 2, the segment 3
        spec = product_spec(load("prism"), load("segment_unit"))
        assert factors(spec.normals()) == [[0, 1], [2], [3]]
        # the triangle's coordinates stay in the input's order, wherever they are
        assert factors(_permuted(spec, (3, 1, 2, 0)).normals()) == [[0], [1, 3], [2]]
        assert factors(_permuted(load("simplex_4"), (2, 0, 3, 1)).normals()) == [[0, 1, 2, 3]]
        # a facet that reads x_0 and x_2 joins them, with x_1 left alone
        assert factors([(1, 0, 1), (0, 1, 0), (-1, 0, 0), (0, 0, -1)]) == [[0, 2], [1]]

    @pytest.mark.parametrize(
        "factors",
        [("prism", "segment_unit"), ("simplex_2", "simplex_2"), ("cube_unit", "simplex_2")],
        ids="-x-".join,
    )
    def test_every_relabelling_matches_the_per_point_classifier(self, factors):
        spec = product_spec(*map(load, factors))
        for order in permutations(range(spec.dim)):
            p = Prepared(_permuted(spec, order))
            for k in range(1, 5):
                assert p.histogram(k) == p.brute_histogram(k), (order, k)

    def test_every_relabelling_settles_the_same_slabs(self, monkeypatch):
        # the two segments are fibres and the triangle one slab, each its
        # own factor, whichever coordinates the input gives them
        settled = []
        lines, congruences = _record_slab_helpers(monkeypatch, settled)
        spec = product_spec(load("prism"), load("segment_unit"))
        work = set()
        for order in permutations(range(4)):
            image = Prepared(_permuted(spec, order))
            del lines[:], congruences[:], settled[:]
            tight_histogram(image.spec, 6, plan=image.slab_plan)
            work.add((len(lines), len(congruences), len(settled)))
        assert len(work) == 1, work

    def test_a_box_settles_the_same_slabs_at_every_k(self, monkeypatch):
        settled = []
        lines, congruences = _record_slab_helpers(monkeypatch, settled)
        work = []
        cube = Prepared(load("cube_unit"))
        for k in (40, 4000):
            del lines[:], congruences[:], settled[:]
            histogram = tight_histogram(cube.spec, k, plan=cube.slab_plan, budget=10**12)
            assert read_count(histogram, "full") == (k + 1) ** 3
            work.append((len(lines), len(congruences), len(settled)))
        assert work[0] == work[1]

    def test_a_product_settles_what_one_factor_settles(self, monkeypatch):
        # simplex_2 x simplex_2 is two factors of one slab each: as many
        # settled-bit tests as one triangle, where walking the first
        # triangle's k + 1 rows would test one more per row
        settled = []
        _record_slab_helpers(monkeypatch, settled)
        for k in (10, 90, 1000):
            work = []
            for name in ("simplex2x2", "simplex_2"):
                p = Prepared(load(name))
                del settled[:]
                tight_histogram(p.spec, k, plan=p.slab_plan, budget=10**13)
                work.append(len(settled))
            assert work[0] == work[1], (k, work)

    @pytest.mark.parametrize(
        "factors",
        [
            ("simplex_2", "segment_unit"),
            ("prism", "simplex_2"),
            ("pentagon", "hirzebruch_a"),
            ("simplex_3", "box_2x3"),
            ("hirzebruch_b", "segment_3"),
        ],
        ids="-x-".join,
    )
    def test_a_product_histogram_is_its_factors_multiplied(self, factors):
        # each face of P x Q is a face of P times a face of Q, so each pair
        # of keys is ORed, Q's facets after P's, and their counts multiplied
        p, q = map(load, factors)
        spec = product_spec(p, q)
        prep_p, prep_q, prep_pq = map(Prepared, (p, q, spec))
        for k, budget in ((1, 10**8), (2, 10**8), (3, 10**8), (4, 10**8), (200, 10**13)):
            left, right = (
                tight_histogram(f.spec, k, plan=f.slab_plan, budget=budget)
                for f in (prep_p, prep_q)
            )
            expected = {
                a | b << p.num_facets: n * m for a, n in left.items() for b, m in right.items()
            }
            got = tight_histogram(spec, k, plan=prep_pq.slab_plan, budget=budget)
            assert got == expected, k


def _drop_one_tight_point(monkeypatch):
    """Make the fibre kernel lose one point tight on facet 1 alone.

    box_2x3's edge on facet 1 holds 3k - 1 such points at every k, so
    every count stays a polynomial and only the routes' agreement fails.
    """
    kernel = counting_mod._interval_masks

    def dropping(*args):
        histogram = kernel(*args)
        histogram[0b1] -= 1
        return histogram

    monkeypatch.setattr(counting_mod, "_interval_masks", dropping)


class TestKernelIsChecked:
    """A broken fibre kernel is caught by the per-point oracle."""

    def test_route_c_catches_a_dropped_point(self, monkeypatch):
        _drop_one_tight_point(monkeypatch)
        with pytest.raises(DisagreementError) as err:
            cy_hilbert_polynomial(Prepared(load("box_2x3")))
        report = err.value.report
        assert report.by_oracle == report.by_operator_formula == UniPoly([0, 10])
        assert report.by_inclusion_exclusion == UniPoly([-1, 10])

    def test_cross_check_reports_a_dropped_point(self, monkeypatch, tmp_path, capsys):
        _drop_one_tight_point(monkeypatch)
        path = tmp_path / "box_2x3.poly"
        path.write_text(corpus_text("box_2x3"), encoding="utf-8")
        assert main(["cross-check", str(path)]) == 6
        out = capsys.readouterr().out
        assert "inclusion_exclusion_vs_count: FAIL (AssertionError: k=1: 9 != 10)" in out


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


class TestUnimodularCharts:
    """The vertex charts on the images ``TestFibreKernel`` draws."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pair=_unimodular_images())
    def test_charts_invert_their_normals(self, pair):
        # the corpus member, then its GL_m(Z) image with a translate
        for spec in pair:
            normals, offsets = spec.normals(), spec.offsets()
            identity = [[int(i == j) for j in range(spec.dim)] for i in range(spec.dim)]
            for chart in enumerate_vertices(spec):
                rows = [normals[i] for i in chart.active_set]
                inverse = [[Fraction(x, chart.det) for x in row] for row in chart.numerators]
                assert mat_mul(inverse, rows) == identity
                anchor = mat_vec(inverse, [offsets[i] for i in chart.active_set])
                assert tuple(anchor) == chart.anchor
                assert chart.det == ring_det(rows)


def _count_payload(name, k, tmp_path, capsys):
    """The ``count --k K --output json`` report of a corpus member."""
    path = tmp_path / f"{name}.poly"
    path.write_text(corpus_text(name), encoding="utf-8")
    assert main(["count", "--k", str(k), "--output", "json", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


class TestCountReport:
    """The ``count --output json`` report: every region and proper face of a dilate."""

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_total_splits_into_interior_and_boundary(self, name, tmp_path, capsys):
        report = _count_payload(name, 2, tmp_path, capsys)
        assert report["count"] == report["total"] == report["interior"] + report["boundary"]
        spec = load(name)
        brute = brute_histogram(spec, 2, charts=Prepared(spec).charts)
        assert report["boundary"] == read_count(brute, "boundary")

    def test_per_face_monotone_under_inclusion(self, tmp_path, capsys):
        report = _count_payload("cube_unit", 2, tmp_path, capsys)
        per_face = {tuple(f["active_set"]): f["count"] for f in report["per_face"]}
        assert len(per_face) == 26
        for small, count_small in per_face.items():
            for large, count_large in per_face.items():
                if set(small) <= set(large):
                    # larger active set means smaller face
                    assert count_large <= count_small


class TestFaceCounts:
    """The superset-sum table against ``read_count``'s per-face scan."""

    @staticmethod
    def assert_matches_scan(histogram):
        table = face_counts(histogram)
        # every facet set inside some key, the empty set included
        faces = set()
        for mask in histogram:
            bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
            faces.update(c for r in range(len(bits) + 1) for c in combinations(bits, r))
        assert set(table) == {sum(1 << i for i in face) for face in faces}
        for face in faces:
            assert table[sum(1 << i for i in face)] == read_count(histogram, "face", face)
            assert face_count(table, face) == read_count(histogram, "face", face)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_matches_scan_on_the_corpus(self, name, k, prepare):
        p = prepare(name)
        histogram = p.histogram(k)
        self.assert_matches_scan(histogram)
        assert p.face_counts(k) == face_counts(histogram)
        assert p.face_counts(k) is p.face_counts(k)
        # a facet set in no key, here all of them, reads zero from both
        every = tuple(range(p.spec.num_facets))
        assert face_count(p.face_counts(k), every) == read_count(histogram, "face", every) == 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(0, 2**6 - 1), st.integers(1, 10**6), max_size=10))
    @example({0: 7, 0b011: 2, 0b101: 3, 0b110: 5, 0b111: 1})
    @example({0: 1})
    @example({})
    def test_matches_scan_on_random_histograms(self, histogram):
        self.assert_matches_scan(histogram)


class TestEhrhartInterpolate:
    def test_simplex_full(self):
        result = ehrhart_interpolate(Prepared(load("simplex_2")), "full")
        assert result == UniPoly([1, Fraction(3, 2), Fraction(1, 2)])

    def test_simplex_boundary(self):
        result = ehrhart_interpolate(Prepared(load("simplex_2")), "boundary")
        assert result == UniPoly([0, 3])

    def test_simplex3_boundary(self):
        result = ehrhart_interpolate(Prepared(load("simplex_3")), "boundary")
        assert result == UniPoly([2, 0, 2])

    def test_unknown_kind_rejected(self):
        for kind in ("face", "nope"):
            with pytest.raises(ValueError, match="unknown Ehrhart kind"):
                ehrhart_interpolate(Prepared(load("simplex_3")), kind)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_full_constant_term_is_one(self, name, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p, "full")
        assert full.coefficient(0) == 1
        assert full.degree == p.spec.dim

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_full_leading_coefficient_is_volume(self, name, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p, "full")
        assert full.coefficient(p.spec.dim) == p.vol.poly.evaluate(
            p.spec.offsets()
        )

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_boundary_constant_term(self, name, prepare):
        # E_boundary(0) = 1 - (-1)^m, verified corpus-wide by brute force
        p = prepare(name)
        boundary = ehrhart_interpolate(p, "boundary")
        assert boundary.evaluate(0) == 1 - (-1) ** p.spec.dim

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_reciprocity(self, name, k, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p, "full")
        interior = count_points(p.spec, k, "interior", charts=p.charts)
        assert (-1) ** p.spec.dim * full.evaluate(-k) == interior
        boundary = count_points(p.spec, k, "boundary", charts=p.charts)
        assert full.evaluate(k) - (-1) ** p.spec.dim * full.evaluate(
            -k
        ) == boundary

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("kind", ["full", "interior", "boundary"])
    def test_matches_a_fit_of_fresh_counts(self, name, kind, prepare):
        # the fit through the kept histograms against the route it replaced:
        # one fresh ``count_points`` pass per node
        p = prepare(name)
        degree = p.spec.dim - (kind == "boundary")
        counts = lambda k: count_points(p.spec, k, kind, charts=p.charts)
        assert ehrhart_interpolate(p, kind) == interpolate_counts(counts, degree, kind).poly()

    def test_prediction_check_catches_non_polynomial_counts(self):
        # counts that lie at the probe node must be rejected
        def lying_counts(k):
            return k if k < 4 else k + 1

        with pytest.raises(NotPolynomialError) as err:
            interpolate_counts(lying_counts, 2, "full")
        assert str(err.value) == (
            "full counts are not a degree-2 polynomial: "
            "predicted 4 at k=4, counted 5"
        )


def _value_lists(n, seed):
    rng = random.Random(seed)
    return [
        [0] * n,
        [rng.randint(-(10**6), -1) for _ in range(n)],
        *([rng.randint(-50, 50) for _ in range(n)] for _ in range(20)),
        [comb(k + n, n) for k in range(1, n + 1)],
    ]


class TestForwardDifferenceFit:
    """The integer Newton fit, n dot products with the cached rows of its
    nodes, against ``UniPoly.interpolate`` at every first node the fits
    use: k = 1 (one-sided) and k = -h (two-sided, 2h + 1 nodes); its
    integer reflection and difference against the polynomial's."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_lagrange_interpolation(self, n):
        for values in _value_lists(n, n):
            nodes = list(enumerate(values, start=1))
            numerators, denominator = _forward_difference_fit(values)
            fit = UniPoly(Fraction(c, denominator) for c in numerators)
            assert fit == UniPoly.interpolate(nodes)

    @pytest.mark.parametrize("h", range(5))
    def test_matches_lagrange_interpolation_from_minus_h(self, h):
        n = 2 * h + 1
        for values in _value_lists(n, 100 + h):
            nodes = list(enumerate(values, start=-h))
            assert _forward_difference_fit(values, -h).poly() == UniPoly.interpolate(nodes)

    @pytest.mark.parametrize("m", range(5))
    def test_integer_reading_matches_the_polynomial_reading(self, m):
        rng = random.Random(200 + m)
        for _ in range(20):
            values = [rng.randint(-50, 50) for _ in range(2 * m + 1)]
            fit = _forward_difference_fit(values, -m)
            reflected = fit.reflected(m)
            assert reflected.poly() == fit.poly().reflected(m)
            assert (fit - reflected).poly() == fit.poly() - fit.poly().reflected(m)
        with pytest.raises(ValueError, match="different denominators"):
            _forward_difference_fit([1, 2, 4]) - _forward_difference_fit([1, 2])

    def test_one_hilbert_cy_builds_each_row_set_once(self, monkeypatch, tmp_path, capsys):
        # cube_2, m = 3: route (a) fits k = 1..3; route (c) the polytope,
        # k = -2..2; the squares and edges k = -1..1; the vertices k = 0
        built = []
        raw = counting_mod._forward_difference_rows.__wrapped__

        def recording(n, start):
            built.append((n, start))
            return raw(n, start)

        monkeypatch.setattr(counting_mod, "_forward_difference_rows", cache(recording))
        path = tmp_path / "cube_2.poly"
        path.write_text(corpus_text("cube_2"), encoding="utf-8")
        assert main(["hilbert-cy", str(path)]) == 0
        capsys.readouterr()
        assert sorted(built) == [(1, 0), (3, -1), (3, 1), (5, -2)]


# lattice polytopes beyond the corpus: blow-ups (dilated by 3, vertices cut
# off) and products, dims 3-5
GENERATED = {
    "cube_unit cut at 0, 3": lambda: blow_up(load("cube_unit"), {0, 3}),
    "simplex_3 cut at 0": lambda: blow_up(load("simplex_3"), {0}),
    "hirzebruch_b x simplex_2 cut at 1": lambda: blow_up(
        product_spec(load("hirzebruch_b"), load("simplex_2")), {1}
    ),
    "pentagon x segment": lambda: product_spec(load("pentagon"), load("segment_unit")),
    "simplex_2^2 x segment": lambda: product_spec(
        load("simplex_2"), load("simplex_2"), load("segment_unit")
    ),
}


@pytest.fixture(params=[*DELZANT_CORPUS, *GENERATED])
def lattice_polytope(request, prepare):
    """A corpus member or a generated polytope, as a Delzant ``Prepared``."""
    if request.param in GENERATED:
        return Prepared(GENERATED[request.param]()).require_delzant()
    return prepare(request.param)


class TestTwoSidedFit:
    """Fits of closed faces through k = -h..h, each negative node read by
    reciprocity, and the regions read off the polytope's fit."""

    def test_equals_the_one_sided_fits(self, lattice_polytope):
        p, m = lattice_polytope, lattice_polytope.spec.dim
        full = fit_face(p.histogram, p.face_counts, m)
        for region in ("full", "interior", "boundary"):
            degree = m - (region == "boundary")
            counts = lambda k: read_count(p.histogram(k), region)
            expected = interpolate_counts(counts, degree, region).poly()
            assert read_region(region, full, full.reflected(m)).poly() == expected, region
            nodes = [(k, counts(k)) for k in range(1, degree + 2)]
            assert UniPoly.interpolate(nodes) == expected
        for record in p.lattice.proper_faces():
            face = record.active_set
            counts = lambda k: read_count(p.histogram(k), "face", face)
            expected = interpolate_counts(counts, record.dim, "face").poly()
            assert fit_face(p.histogram, p.face_counts, m, face).poly() == expected

    def test_the_euler_class_parallel_holds_as_polynomials(self, lattice_polytope):
        # the paper's parallel: inclusion-exclusion over the per-face fits,
        # sum_F (-1)^(codim F + 1) L_F, equals the reading of the polytope's
        # fit, L(k) - (-1)^m L(-k) (the Euler class 1 - [K_M]), equals the
        # A-hat vertex sum
        p, m = lattice_polytope, lattice_polytope.spec.dim
        by_faces = UniPoly()
        for record in p.lattice.proper_faces():
            fit = fit_face(p.histogram, p.face_counts, m, record.active_set).poly()
            by_faces = by_faces + fit * (-1) ** (m - record.dim + 1)
        full = fit_face(p.histogram, p.face_counts, m)
        by_reading = read_region("boundary", full, full.reflected(m)).poly()
        assert by_faces == by_reading == symbolic_ehrhart(p, "boundary")
        assert by_reading.degree == m - 1

    def test_the_per_face_table_equals_the_oracles_one_sided_fits(self, lattice_polytope):
        # each face's fit through the per-point oracle's histograms at
        # k = 1..f+2, each scanned for the face, shares no table, no
        # two-sided node and no kernel pass with the per-face table
        p = lattice_polytope
        per_face = cy_hilbert_polynomial(p).per_face
        faces = {record.active_set: record.dim for record in p.lattice.proper_faces()}
        assert per_face.keys() == faces.keys()
        for face, dim in faces.items():
            counts = lambda k: read_count(p.brute_histogram(k), "face", face)
            assert per_face[face] == interpolate_counts(counts, dim, "face").poly(), face

    def test_the_operator_interior_equals_brute_interior_counts(self, lattice_polytope):
        # the Todd vertex sum read by reciprocity, against the per-point
        # oracle at m + 1 dilates, which fix a polynomial of degree m
        p, m = lattice_polytope, lattice_polytope.spec.dim
        interior = symbolic_ehrhart(p, "interior")
        assert interior.degree == m
        for k in range(1, m + 2):
            assert interior.evaluate(k) == read_count(p.brute_histogram(k), "interior"), k
        assert interior == ehrhart_interpolate(p, "interior")

    @pytest.mark.parametrize("degree", range(8))
    def test_recovers_any_polynomial(self, degree):
        # any degree and parity, not only Ehrhart polynomials: integer
        # values at k = 0..degree, 1 at k = 0, make a polynomial integer-valued
        rng = random.Random(degree)
        for _ in range(20):
            nodes = [(0, 1)] + [(k, rng.randint(-50, 50)) for k in range(1, degree + 1)]
            poly = UniPoly.interpolate(nodes)
            value = lambda k: int(poly.evaluate(k))
            fit = interpolate_two_sided(lambda k: (value(k), value(-k)), degree, "full")
            assert fit.poly() == poly
            assert [fit.at(k) for k in (-7, 0, 97)] == [value(k) for k in (-7, 0, 97)]

    def test_spare_top_coefficient_must_vanish(self):
        # degree 1 fits k = -1, 0, 1; 1 + k^2 there has k^2 coefficient 1
        with pytest.raises(NotPolynomialError) as err:
            interpolate_two_sided(lambda k: (k * k + 1, k * k + 1), 1, "boundary")
        assert str(err.value) == (
            "boundary counts are not a degree-1 polynomial: "
            "the fit through k = -1..1 has k^2 coefficient 1"
        )

    def test_a_count_off_by_one_at_the_probe_is_rejected(self, prepare):
        # simplex_3, full: the nodes read k = 1, 2 and the probe k = 3
        p = prepare("simplex_3")

        def histograms(k):
            histogram = dict(p.histogram(k))
            if k == 3:
                histogram[0] = histogram.get(0, 0) + 1
            return histogram

        with pytest.raises(NotPolynomialError) as err:
            fit_face(histograms, p.face_counts, 3)
        assert str(err.value) == (
            "full counts are not a degree-3 polynomial: predicted 20 at k=3, counted 21"
        )
        assert fit_face(p.histogram, p.face_counts, 3).at(3) == 20

    def test_an_interior_count_off_by_one_is_rejected_at_minus_the_probe(self, prepare):
        # simplex_3: a boundary point at the probe k = 3 read as interior
        # keeps the total, 20, so the probe k = 3 passes; the interior,
        # C(2, 3) = 0, reads 1, and the fit's value at k = -3 is -0
        p = prepare("simplex_3")

        def histograms(k):
            histogram = dict(p.histogram(k))
            if k == 3:
                histogram[0] = histogram.get(0, 0) + 1
                histogram[0b1] -= 1
            return histogram

        with pytest.raises(NotPolynomialError) as err:
            fit_face(histograms, p.face_counts, 3)
        assert str(err.value) == (
            "full counts are not a degree-3 polynomial: predicted 0 at k=-3, counted -1"
        )
        assert read_count(p.histogram(3), "interior") == 0

    def test_a_facet_set_that_cuts_out_no_face_reads_zero(self, prepare):
        p = prepare("cube_unit")
        for face in ((0, 1), (0, 2, 4, 1)):
            fit = fit_face(p.histogram, p.face_counts, 3, face)
            assert fit.poly() == UniPoly() and fit.at(997) == 0


class TestFittedCount:
    """``count_points`` above k = m + 2 reads the region's fit, not a pass at k."""

    @staticmethod
    def kernel_dilates(monkeypatch):
        """The dilates of every ``tight_histogram`` pass from here on."""
        dilates, real = [], counting_mod.tight_histogram

        def recording(spec, k, **kwargs):
            dilates.append(k)
            return real(spec, k, **kwargs)

        monkeypatch.setattr(counting_mod, "tight_histogram", recording)
        return dilates

    @pytest.mark.parametrize("far", ["m+3", 97, 997])
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_equals_a_kernel_pass_at_k(self, name, far, prepare, monkeypatch):
        p = prepare(name)
        m = p.spec.dim
        k = m + 3 if far == "m+3" else far
        histogram = tight_histogram(p.spec, k, budget=10**30, plan=p.slab_plan)
        dilates = self.kernel_dilates(monkeypatch)
        faces = [rec.active_set for rec in p.lattice.proper_faces()]
        # a facet set that cuts out no face: every facet
        faces.append(tuple(range(p.spec.num_facets)))
        for region, face in [("full", None), ("interior", None), ("boundary", None)] + [
            ("face", face) for face in faces
        ]:
            dilates.clear()
            got = count_points(p.spec, k, region, face=face, charts=p.charts)
            assert got == read_count(histogram, region, face), (region, face)
            # the default budget holds only the nodes' boxes, never k's
            assert max(dilates) <= (m + 1) // 2 + 1 < k

    def test_a_non_lattice_polytope_keeps_the_direct_pass(self, monkeypatch):
        # the vertex (1/2, 0) is off the lattice: the counts are a
        # quasi-polynomial of period 2, which no fit reads
        spec = HalfSpaceSpec(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)])
        charts = Prepared(spec).charts
        dilates = self.kernel_dilates(monkeypatch)
        for k in (7, 8, 97):
            dilates.clear()
            for region in ("full", "interior", "boundary"):
                brute = brute_histogram(spec, k, charts=charts)
                assert count_points(spec, k, region, charts=charts) == read_count(brute, region)
            assert dilates == [k] * 3
        # floor((k + 2)^2 / 4) points at k, not a polynomial
        assert [count_points(spec, k, charts=charts) for k in range(1, 7)] == [2, 4, 6, 9, 12, 16]
        with pytest.raises(ValueError, match="is not a lattice point"):
            ehrhart_interpolate(Prepared(spec))

    @pytest.mark.parametrize("name", ["simplex_3", "cube_2", "prism", "hirzebruch_b"])
    def test_json_report_reads_the_fits(self, name, tmp_path, capsys, prepare):
        p = prepare(name)
        k = 97
        histogram = tight_histogram(p.spec, k, budget=10**30, plan=p.slab_plan)
        report = _count_payload(name, k, tmp_path, capsys)
        assert report["total"] == read_count(histogram, "full")
        assert report["interior"] == read_count(histogram, "interior")
        assert report["boundary"] == read_count(histogram, "boundary")
        for entry in report["per_face"]:
            face = tuple(i - 1 for i in entry["active_set"])
            assert entry["count"] == read_count(histogram, "face", face)
