"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a PASS line on success (visible with -s; under plain
pytest -v the test name itself is the per-criterion line).  All equalities
are exact rational comparisons; the only tolerances are wall-clock bounds.
"""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

import delzant.operators as operators
from delzant.cli import main
from delzant.corpus import DELZANT_CORPUS, corpus_text, load
from delzant.counting import ehrhart_interpolate, read_count
from delzant.errors import FormulaViolationError, NonSimpleError
from delzant.hilbert import cross_check, cy_hilbert_polynomial, inclusion_exclusion_count
from delzant.operators import operator_count, series_coefficients, series_multiply
from delzant.polynomial import UniPoly, euler_expansion_identity
from delzant.polytope import HalfSpaceSpec, enumerate_vertices, validate_delzant
from delzant.prepared import Prepared
from delzant.volume import (
    boundary_volume_polynomial,
    chamber_samples,
    facet_volume_sum,
    numeric_volume_at,
)
from series_reference import series_invert, todd_denominator_series


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def test_criterion_01_projective_hypersurface_hilbert_polynomials(capsys, tmp_path):
    expected = {
        "simplex_2": UniPoly([0, 3]),
        "simplex_3": UniPoly([2, 0, 2]),
        "simplex_4": UniPoly([0, Fraction(25, 6), 0, Fraction(5, 6)]),
    }
    headline = {
        "simplex_2": "boundary Ehrhart: 3k",
        "simplex_3": "boundary Ehrhart: 2k^2 + 2",
        "simplex_4": "boundary Ehrhart: (5/6)k^3 + (25/6)k",
    }
    watch = Stopwatch(5.0)
    for name, poly in expected.items():
        report = cy_hilbert_polynomial(Prepared(load(name)))
        assert report.agree is True
        assert report.by_inclusion_exclusion == poly
        assert report.by_operator_formula == poly
        assert report.by_oracle == poly
        path = tmp_path / f"{name}.poly"
        path.write_text(corpus_text(name), encoding="utf-8")
        assert main(["hilbert-cy", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == headline[name]
    elapsed = watch.check()
    print(f"ACCEPTANCE 1: PASS (3k, 2k^2+2, (5/6)k^3+(25/6)k in {elapsed:.2f}s)")


def test_criterion_02_todd_operator_count_is_executable_theorem(prepare):
    watch = Stopwatch(30.0)
    for name in DELZANT_CORPUS:
        p = prepare(name)
        formula = operator_count(p, "full")
        brute = read_count(p.brute_histogram(1), "full")
        assert formula == brute, name
    elapsed = watch.check()
    print(f"ACCEPTANCE 2: PASS ({len(DELZANT_CORPUS)} polytopes in {elapsed:.2f}s)")


def test_criterion_03_ahat_boundary_count_is_executable_theorem(prepare):
    watch = Stopwatch(30.0)
    for name in DELZANT_CORPUS:
        p = prepare(name)
        formula = operator_count(p, "boundary")
        brute = read_count(p.brute_histogram(1), "boundary")
        assert formula == brute, name
    elapsed = watch.check()
    print(f"ACCEPTANCE 3: PASS ({len(DELZANT_CORPUS)} polytopes in {elapsed:.2f}s)")


def test_criterion_04_inclusion_exclusion_matches_brute_force(prepare):
    watch = Stopwatch(60.0)
    for name in DELZANT_CORPUS:
        p = prepare(name)
        for k in range(1, 6):
            via_faces = inclusion_exclusion_count(p, k)
            brute = read_count(p.brute_histogram(k), "boundary")
            assert via_faces == brute, (name, k)
    elapsed = watch.check()
    print(f"ACCEPTANCE 4: PASS (k = 1..5 on {len(DELZANT_CORPUS)} polytopes in {elapsed:.2f}s)")


def test_criterion_05_product_expansion_identity():
    watch = Stopwatch(5.0)
    for n in range(1, 11):
        assert euler_expansion_identity(n), n
    elapsed = watch.check()
    print(f"ACCEPTANCE 5: PASS (n = 1..10 in {elapsed:.2f}s)")


def test_criterion_06_ehrhart_reciprocity(prepare):
    for name in DELZANT_CORPUS:
        p = prepare(name)
        full = ehrhart_interpolate(p, "full")
        m = p.spec.dim
        for k in range(1, 6):
            interior = read_count(p.brute_histogram(k), "interior")
            assert (-1) ** m * full.evaluate(-k) == interior, (name, k)
    print(f"ACCEPTANCE 6: PASS (k = 1..5 on {len(DELZANT_CORPUS)} polytopes)")


def test_criterion_07_derivative_sum_equals_facet_volume_sum(prepare):
    for name in DELZANT_CORPUS:
        p = prepare(name)
        boundary = boundary_volume_polynomial(p.vol)
        derivative_sum = boundary.poly.evaluate(p.spec.offsets())
        direct = facet_volume_sum(p.spec, p.lattice)
        assert derivative_sum == direct, name
    print(f"ACCEPTANCE 7: PASS ({len(DELZANT_CORPUS)} polytopes)")


def test_criterion_08_series_constants():
    td = series_coefficients("Td", 6)
    assert list(td) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
        Fraction(0),
        Fraction(1, 30240),
    ]
    # each closed form against a power series inversion, through order 20
    assert list(series_coefficients("Td", 20)) == series_invert(
        todd_denominator_series(20), 20
    )
    ahat = series_coefficients("Ahat", 20)
    inv = series_coefficients("invAhat", 20)
    assert list(ahat) == series_invert(inv, 20)
    assert list(inv) == series_invert(ahat, 20)
    one = [Fraction(1)] + [Fraction(0)] * 20
    assert series_multiply(ahat, inv, 20) == one
    for j in range(6):
        assert inv[2 * j] == Fraction(1, 2 ** (2 * j) * factorial(2 * j + 1))
    print("ACCEPTANCE 8: PASS (Td, Ahat, invAhat constants exact)")


def test_criterion_09_volume_oracle_agreement(prepare):
    total = 0
    for name in DELZANT_CORPUS:
        p = prepare(name)
        wanted = comb(p.spec.num_facets + p.spec.dim, p.spec.dim)
        samples = chamber_samples(p)
        assert len(samples) == wanted
        for sample in samples:
            assert p.vol.poly.evaluate(sample) == numeric_volume_at(p, sample), name
        total += len(samples)
    print(f"ACCEPTANCE 9: PASS ({total} chamber samples, all exact)")


def test_criterion_09_cross_check_in_dimension_5():
    # simplex_2 x simplex_2 x segment: 8 facets, 18 vertices, the full
    # C(8 + 5, 5) sweep of the oracle beside every other identity
    watch = Stopwatch(30.0)
    factors = [load("simplex_2"), load("simplex_2"), load("segment_unit")]
    facets, shift = [], 0
    for f in factors:
        for normal, offset in f.facets:
            facets.append(((0,) * shift + normal + (0,) * (5 - shift - f.dim), offset))
        shift += f.dim
    report = cross_check(Prepared(HalfSpaceSpec(5, facets)))
    assert [c for c in report.checks if not c.ok] == []
    assert report.ok and len(report.checks) == 10
    oracle = next(c for c in report.checks if c.name == "volume_oracle_samples")
    assert oracle.detail == f"{comb(13, 5)} samples" == "1287 samples"
    elapsed = watch.check()
    print(f"ACCEPTANCE 9: PASS (10 checks in dimension 5 in {elapsed:.2f}s)")


def test_criterion_10_negative_paths(monkeypatch):
    # det-2 triangle: validation failure names the offending vertex
    triangle = load("triangle_det2")
    report = validate_delzant(triangle, Prepared(triangle).charts)
    assert not report.ok
    assert report.failures[0].anchor == (1, 0)
    assert abs(report.failures[0].det) == 2

    # square pyramid: not simple
    with pytest.raises(NonSimpleError):
        enumerate_vertices(load("pyramid_nonsimple"))

    # Mutation check (executed here on every run, not just once during
    # development): corrupting the Bernoulli constants breaks the criterion-2
    # identity, and corrupting the A-hat constant breaks criterion 3.  The
    # criterion-4 identity compares two series-free enumeration routes, so no
    # series corruption can reach it by construction.
    p = Prepared(load("simplex_2"))  # its own pipeline, built under the mutation
    good_bernoulli = operators.bernoulli_numbers(8)

    def corrupted_bernoulli(order):
        values = good_bernoulli[: order + 1]
        values[2] = Fraction(1, 7)
        return values

    monkeypatch.setattr(operators, "bernoulli_numbers", corrupted_bernoulli)
    brute = read_count(p.brute_histogram(1), "full")
    try:
        assert operator_count(p, "full") != brute
    except FormulaViolationError:
        pass
    monkeypatch.undo()

    q = Prepared(load("simplex_3"))
    good_ahat = series_coefficients("Ahat", 10)

    def corrupted_series(name, order):
        if name == "Ahat":
            coeffs = list(good_ahat[: order + 1])
            if order >= 2:
                coeffs[2] = Fraction(-1, 23)
            return tuple(coeffs)
        return series_coefficients(name, order)

    monkeypatch.setattr(operators, "series_coefficients", corrupted_series)
    brute_boundary = read_count(q.brute_histogram(1), "boundary")
    try:
        assert operator_count(q, "boundary") != brute_boundary
    except FormulaViolationError:
        pass
    monkeypatch.undo()

    print("ACCEPTANCE 10: PASS (det-2 reported, pyramid rejected, mutations caught)")
