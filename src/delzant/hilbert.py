"""Boundary Hilbert polynomials by three independent routes.

The boundary lattice point count of a Delzant polytope is computed by
(a) inclusion-exclusion over the face lattice, (b) the A-hat operator
formula on the boundary volume at the offsets k times the anchor
(``symbolic_ehrhart``, which applies the operator to each vertex's term
of the volume formula as one univariate series, with no volume
polynomial), and (c) direct brute-force counting; (a) and (c) are fitted
to a polynomial in the dilation factor k.  Route (c) reads the boundary
off the oracle's fit of the polytope L (``fit_face``), in integers, by
the one reading of every boundary count
(``read_region``): the K-theory Euler class of the Calabi-Yau
hypersurface Z in |-K_M| is [O_Z] = 1 - [K_M], so H(k) = L(k) - (-1)^m
L(-k), the second term by Serre duality on M.  The fit is
two-sided, so it assumes Ehrhart-Macdonald reciprocity and reads the
dilates k = 1..h+1, h = ceil(m/2), not k = 1..m+1.  Route (a) fits
through k = 1..m+1, one dilate more than its degree m - 1 needs
(``interpolate_counts``), assuming nothing at k <= 0, so it checks the
parity route (c) assumes.  Every fit is accepted by one rule: the
interpolant through every count it read has at most the degree asked.
Each route gives a plain ``UniPoly`` in k.  The three are proven-equal
identities, so any disagreement aborts loudly: it always means an
implementation bug or invalid input, never an acceptable warning.  Only
then is the per-face table, each proper face's Ehrhart polynomial,
fitted on both sides of zero (``fit_face``), from no dilate beyond
route (a)'s: the kept histogram and face-count table of each dilate k =
1..floor(m/2)+1 are read once into plain per-k lookups, handed to every
face's fit, and each fit is a few integer dot products with the rows
cached for its nodes (``counting._forward_difference_rows``).  Route
(a) and the per-face table read every face count from one table per
dilate (``Prepared.face_counts``: one superset-sum pass over the slab
kernel's histogram), not from a histogram scan per face; the scan,
``read_count(..., "face")``, is the tests' oracle.
Route (c) and every brute comparison value of ``cross_check`` read the
per-point classifier's histogram of the dilate
(``Prepared.brute_histogram``, one per k), so the kernel is always
checked against code it shares nothing with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .counting import count_points, face_count, fit_face, interpolate_counts
from .counting import read_count, read_region
from .errors import BudgetExceededError, DisagreementError, NotPolynomialError
from .operators import operator_count, symbolic_ehrhart
from .polynomial import UniPoly
from .polytope import enumerate_vertices
from .prepared import Prepared
from .volume import chamber_samples, facet_volume_sum, numeric_volume_at


def inclusion_exclusion_levels(prep: Prepared, k: int):
    """Per-level terms of the alternating face-count sum.

    Level l runs over every size-l subset of facets, resolves it through
    the face lattice (empty intersections count zero), and carries the
    sign (-1)^(l+1).  Returns a list of (level, sign, count_sum) triples.
    Every face count is read from the k-fold dilate's one face-count
    table (``Prepared.face_counts``).  Raises BudgetExceededError before
    the walk when its 2^d - 1 facet subsets exceed the budget.
    """
    d = prep.spec.num_facets
    if (subsets := 2**d - 1) > prep.budget:
        raise BudgetExceededError(subsets, prep.budget, "inclusion-exclusion", "facet subsets")
    lattice = prep.lattice
    table = prep.face_counts(k)
    levels = []
    for size in range(1, d + 1):
        sign = -1 if size % 2 == 0 else 1
        subtotal = 0
        for subset in combinations(range(d), size):
            record = lattice.resolve(subset)
            if record is None:
                continue
            subtotal += face_count(table, record.active_set)
        levels.append((size, sign, subtotal))
    return levels


def inclusion_exclusion_count(prep: Prepared, k: int) -> int:
    """Boundary lattice point count of the k-fold dilate by inclusion-exclusion."""
    return sum(sign * subtotal for _, sign, subtotal in inclusion_exclusion_levels(prep, k))


@dataclass(frozen=True)
class HilbertReport:
    """The three routes' polynomials; ``by_oracle`` is None when the
    oracle's counts fit no polynomial of route (c)'s form; ``per_face`` is
    empty when the routes disagree."""

    by_inclusion_exclusion: UniPoly
    by_operator_formula: UniPoly
    by_oracle: UniPoly | None
    agree: bool
    per_face: dict[tuple[int, ...], UniPoly]


def cy_hilbert_polynomial(prep: Prepared) -> HilbertReport:
    """Boundary Hilbert polynomial, three ways, with mandatory agreement.

    The inclusion-exclusion fit reads its face counts from the polytope's
    one face-count table per dilation k, at k = 1..m+1, and assumes
    nothing at k <= 0.  The oracle route reads the per-point classifier's
    histogram of each dilate instead (``Prepared.brute_histogram``): the
    polytope's fit through them, on both sides of zero, and the boundary
    read off it, so it assumes reciprocity; oracle counts that break it
    fit no polynomial, and that too is a disagreement.  Only
    once the three agree is each proper face fitted, on both sides of
    zero, from the same tables, each read once per dilate.  Raises
    NotDelzantError on invalid input.
    """
    spec = prep.require_delzant().spec
    m = spec.dim
    via_faces = interpolate_counts(
        lambda k: inclusion_exclusion_count(prep, k), max(m - 1, 0), "boundary"
    )
    by_operator = symbolic_ehrhart(prep, "boundary")
    try:
        oracle = fit_face(prep.brute_histogram, None, m)  # the polytope reads no table
        by_oracle, failure = read_region("boundary", oracle, oracle.reflected(m)), None
    except NotPolynomialError as exc:
        by_oracle, failure = None, exc
    agree = via_faces == by_operator == by_oracle
    per_face = {}
    if agree:
        # a proper face has degree f < m, so its fit reads k = 1..ceil(f/2)+1,
        # at most m // 2 + 1, each dilate's kept histogram and table read once
        dilates = range(1, m // 2 + 2)
        histograms = [None, *map(prep.histogram, dilates)].__getitem__
        tables = [None, *map(prep.face_counts, dilates)].__getitem__
        for record in prep.lattice.proper_faces():
            face = record.active_set
            per_face[face] = fit_face(histograms, tables, m, face)
    report = HilbertReport(
        by_inclusion_exclusion=via_faces,
        by_operator_formula=by_operator,
        by_oracle=by_oracle,
        agree=agree,
        per_face=per_face,
    )
    if not agree:
        raise DisagreementError(
            "boundary Hilbert polynomial routes disagree: "
            f"inclusion-exclusion {via_faces.to_text()}, "
            f"operator {by_operator.to_text()}, "
            f"oracle {by_oracle.to_text() if failure is None else f'none ({failure})'}",
            report=report,
        )
    return report


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    checks: tuple[CheckResult, ...]


def cross_check(prep: Prepared) -> CrossCheckReport:
    """Run every identity the package asserts against one polytope.

    Raises NotDelzantError on invalid input and BudgetExceededError when an
    enumeration outruns the budget; otherwise returns a report, with each
    failed identity recorded rather than raised.
    """
    spec, charts, budget = prep.require_delzant().spec, prep.charts, prep.budget
    m = spec.dim
    checks: list[CheckResult] = []

    def run(name, func):
        try:
            detail = func()
            checks.append(CheckResult(name, True, detail))
        except BudgetExceededError:
            raise
        except Exception as exc:  # recorded, not raised: this is a report
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    def check_formula(region):
        formula = operator_count(prep, region)
        brute = read_count(prep.brute_histogram(1), region)
        if formula != brute:
            raise AssertionError(f"operator count {formula} != brute count {brute}")
        return f"count {formula}"

    def check_inclusion_exclusion():
        for k in range(1, 6):
            via_faces = inclusion_exclusion_count(prep, k)
            brute = read_count(prep.brute_histogram(k), "boundary")
            if via_faces != brute:
                raise AssertionError(f"k={k}: {via_faces} != {brute}")
        return "k = 1..5"

    def check_hilbert():
        report = cy_hilbert_polynomial(prep)
        return f"boundary Ehrhart {report.by_oracle.to_text()}"

    def check_reciprocity():
        # the full polynomial from the slab kernel, the interior from the oracle
        full = interpolate_counts(
            lambda k: count_points(spec, k, "full", budget=budget, charts=charts), m, "full"
        )
        for k in range(1, 6):
            predicted = (-1) ** m * full.at(-k)
            interior = read_count(prep.brute_histogram(k), "interior")
            if predicted != interior:
                raise AssertionError(f"k={k}: {predicted} != {interior}")
        return "k = 1..5"

    def check_facet_volumes():
        derivative_sum = prep.boundary.poly.evaluate(spec.offsets())
        direct = facet_volume_sum(spec, prep.lattice)
        if derivative_sum != direct:
            raise AssertionError(f"{derivative_sum} != {direct}")
        return f"boundary volume {derivative_sum}"

    def check_volume_samples():
        samples = chamber_samples(prep)
        for sample in samples:
            via_poly = prep.vol.poly.evaluate(sample)
            via_geometry = numeric_volume_at(prep, sample)
            if via_poly != via_geometry:
                raise AssertionError(f"at {sample}: {via_poly} != {via_geometry}")
        return f"{len(samples)} samples"

    def check_euler():
        total = prep.lattice.euler_sum()
        if total != 1:
            raise AssertionError(f"alternating face sum {total} != 1")
        return f"{len(prep.lattice.faces)} faces"

    def check_dilation():
        base = sorted(c.anchor for c in charts)
        for k in (1, 2, 3):
            dilated = sorted(c.anchor for c in enumerate_vertices(spec.dilate(k)))
            scaled = sorted(tuple(k * x for x in a) for a in base)
            if dilated != scaled:
                raise AssertionError(f"k={k}: dilated vertices differ")
        return "k = 1..3"

    run("delzant", lambda: f"{len(charts)} vertices, all determinants +-1")
    run("khovanskii_vs_count", lambda: check_formula("full"))
    run("boundary_formula_vs_count", lambda: check_formula("boundary"))
    run("inclusion_exclusion_vs_count", check_inclusion_exclusion)
    run("hilbert_three_way", check_hilbert)
    run("reciprocity", check_reciprocity)
    run("facet_volume_identity", check_facet_volumes)
    run("volume_oracle_samples", check_volume_samples)
    run("euler_relation", check_euler)
    run("dilation_consistency", check_dilation)
    return CrossCheckReport(ok=all(c.ok for c in checks), checks=tuple(checks))
