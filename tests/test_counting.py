from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from delzant.corpus import DELZANT_CORPUS, load
import delzant.counting as counting_mod
from delzant.counting import (
    count_points,
    count_report,
    ehrhart_interpolate,
    interpolate_counts,
    read_count,
    tight_histogram,
)
from delzant.errors import BudgetExceededError, NotPolynomialError
from delzant.hilbert import cy_hilbert_polynomial
from delzant.polynomial import UniPoly
from delzant.polytope import HalfSpaceSpec, enumerate_vertices
from delzant.prepared import Prepared


class TestCountPoints:
    def test_simplex_examples(self):
        spec = load("simplex_2")
        assert count_points(spec, 1, "full") == 3
        assert count_points(spec, 3, "interior") == 1
        assert count_points(load("simplex_3"), 1, "boundary") == 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_unit_simplex_binomial(self, m, k):
        spec = load(f"simplex_{m}") if m > 1 else load("segment_unit")
        assert count_points(spec, k, "full") == comb(k + m, m)

    def test_face_region(self, prepare):
        p = prepare("simplex_2")
        # the hypotenuse x + y = k carries k + 1 points
        assert count_points(p.spec, 4, "face", face=(2,)) == 5
        # empty intersection counts zero without complaint
        assert count_points(p.spec, 2, "face", face=(0, 1, 2)) == 0

    def test_face_region_argument_errors(self):
        spec = load("simplex_2")
        with pytest.raises(ValueError):
            count_points(spec, 1, "face")
        with pytest.raises(ValueError):
            count_points(spec, 1, "face", face=(7,))
        with pytest.raises(ValueError):
            count_points(spec, 1, "full", face=(0,))
        with pytest.raises(ValueError):
            count_points(spec, 0, "full")
        with pytest.raises(ValueError):
            count_points(spec, 1, "everything")

    def test_budget_exceeded_reports_required_size(self):
        with pytest.raises(BudgetExceededError) as err:
            count_points(load("cube_2"), 50, budget=1000)
        assert err.value.required == 101**3
        assert err.value.budget == 1000


def _mask(active_set):
    return sum(1 << i for i in active_set)


class TestTightHistogram:
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reads_equal_separate_enumerations(self, name, k, prepare):
        p = prepare(name)
        histogram = tight_histogram(p.spec, k, charts=p.charts)
        for region in ("full", "interior", "boundary"):
            assert read_count(histogram, region) == count_points(
                p.spec, k, region, charts=p.charts
            )
        # every face, plus facet sets that cut out nothing and the empty set
        facet_sets = {rec.active_set for rec in p.lattice.faces.values()}
        facet_sets.add(tuple(range(p.spec.num_facets)))
        facet_sets.update(
            (i, j)
            for i in range(p.spec.num_facets)
            for j in range(i + 1, p.spec.num_facets)
        )
        for face in sorted(facet_sets):
            assert read_count(histogram, "face", face) == count_points(
                p.spec, k, "face", face=face, charts=p.charts
            ), face
        assert read_count(histogram, "face", ()) == read_count(histogram, "full")

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_keys_are_face_active_sets(self, name, prepare):
        p = prepare(name)
        active = {_mask(key) for key in p.lattice.faces}
        for k in (1, 2, 3):
            histogram = tight_histogram(p.spec, k, charts=p.charts)
            assert set(histogram) <= active
            assert all(n > 0 for n in histogram.values())
        # a lattice polytope of dim m has an interior point at k = m + 1, and so
        # has each face in its relative interior: then every face is a key
        k = p.spec.dim + 1
        assert set(tight_histogram(p.spec, k, charts=p.charts)) == active

    def test_argument_errors(self):
        spec = load("simplex_2")
        with pytest.raises(ValueError):
            tight_histogram(spec, 0)
        with pytest.raises(BudgetExceededError):
            tight_histogram(load("cube_2"), 50, budget=1000)
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
    shares nothing with the fibre kernel behind ``tight_histogram``.
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


class TestFibreKernel:
    """``tight_histogram`` against the per-point reference classifier."""

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_corpus_histograms_match_reference(self, name, k):
        spec = load(name)
        assert tight_histogram(spec, k) == _reference_histogram(spec, k)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pair=_unimodular_images(), k=st.integers(1, 2))
    def test_unimodular_images_match_reference(self, pair, k):
        spec, image = pair
        histogram = tight_histogram(image, k)
        assert histogram == _reference_histogram(image, k)
        # a lattice bijection that keeps the facet order keeps every mask count
        assert histogram == tight_histogram(spec, k)


class TestCountReport:
    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_total_splits_into_interior_and_boundary(self, name, prepare):
        p = prepare(name)
        report = count_report(p.histogram(2), p.lattice, 2)
        assert report.total == report.interior + report.boundary
        brute_boundary = count_points(p.spec, 2, "boundary", charts=p.charts)
        assert report.boundary == brute_boundary

    def test_per_face_monotone_under_inclusion(self, prepare):
        p = prepare("cube_unit")
        report = count_report(p.histogram(2), p.lattice, 2)
        for small, count_small in report.per_face.items():
            for large, count_large in report.per_face.items():
                if set(small) <= set(large):
                    # larger active set means smaller face
                    assert count_large <= count_small


class TestEhrhartInterpolate:
    def test_simplex_full(self):
        result = ehrhart_interpolate(load("simplex_2"), "full")
        assert result.poly == UniPoly([1, Fraction(3, 2), Fraction(1, 2)])

    def test_simplex_boundary(self):
        result = ehrhart_interpolate(load("simplex_2"), "boundary")
        assert result.poly == UniPoly([0, 3])

    def test_simplex3_boundary(self):
        result = ehrhart_interpolate(load("simplex_3"), "boundary")
        assert result.poly == UniPoly([2, 0, 2])

    def test_unknown_kind_rejected(self):
        for kind in ("face", "nope"):
            with pytest.raises(ValueError, match="unknown Ehrhart kind"):
                ehrhart_interpolate(load("simplex_3"), kind)

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_full_constant_term_is_one(self, name, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p.spec, "full", charts=p.charts)
        assert full.poly.coefficient(0) == 1
        assert full.poly.degree == p.spec.dim

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_full_leading_coefficient_is_volume(self, name, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p.spec, "full", charts=p.charts)
        assert full.poly.coefficient(p.spec.dim) == p.vol.poly.evaluate(
            p.spec.offsets()
        )

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    def test_boundary_constant_term(self, name, prepare):
        # E_boundary(0) = 1 - (-1)^m, verified corpus-wide by brute force
        p = prepare(name)
        boundary = ehrhart_interpolate(p.spec, "boundary", charts=p.charts)
        assert boundary.poly.evaluate(0) == 1 - (-1) ** p.spec.dim

    @pytest.mark.parametrize("name", DELZANT_CORPUS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_reciprocity(self, name, k, prepare):
        p = prepare(name)
        full = ehrhart_interpolate(p.spec, "full", charts=p.charts)
        interior = count_points(p.spec, k, "interior", charts=p.charts)
        assert (-1) ** p.spec.dim * full.poly.evaluate(-k) == interior
        boundary = count_points(p.spec, k, "boundary", charts=p.charts)
        assert full.poly.evaluate(k) - (-1) ** p.spec.dim * full.poly.evaluate(
            -k
        ) == boundary

    def test_prediction_check_catches_non_polynomial_counts(self):
        # counts that lie at the probe node must be rejected
        def lying_counts(k):
            return k if k < 4 else k + 1

        with pytest.raises(NotPolynomialError):
            interpolate_counts(lying_counts, 2, "full")
