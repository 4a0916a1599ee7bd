"""Boundary Hilbert polynomials by three independent routes.

The boundary lattice point count of a Delzant polytope is computed by
(a) inclusion-exclusion over the face lattice, (b) the A-hat operator
formula on the boundary volume, and (c) direct brute-force counting, each
fitted to a polynomial in the dilation factor.  The three polynomials are
proven-equal identities, so any disagreement aborts loudly: it always
means an implementation bug or invalid input, never an acceptable warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .counting import (
    EhrhartPoly,
    count_points,
    ehrhart_interpolate,
    interpolate_counts,
    read_count,
)
from .errors import DisagreementError
from .operators import boundary_count_formula, khovanskii_count, symbolic_ehrhart
from .polytope import enumerate_vertices
from .prepared import Prepared
from .volume import chamber_samples, facet_volume_sum, numeric_volume_at


def inclusion_exclusion_levels(prep: Prepared, k: int):
    """Per-level terms of the alternating face-count sum.

    Level l runs over every size-l subset of facets, resolves it through
    the face lattice (empty intersections count zero), and carries the
    sign (-1)^(l+1).  Returns a list of (level, sign, count_sum) triples.
    Every face count is read from the one tight-mask histogram of the
    k-fold dilate.
    """
    d = prep.spec.num_facets
    lattice = prep.lattice
    histogram = prep.histogram(k)
    levels = []
    for size in range(1, d + 1):
        sign = -1 if size % 2 == 0 else 1
        subtotal = 0
        for subset in combinations(range(d), size):
            record = lattice.resolve(subset)
            if record is None:
                continue
            subtotal += read_count(histogram, "face", record.active_set)
        levels.append((size, sign, subtotal))
    return levels


def inclusion_exclusion_count(prep: Prepared, k: int) -> int:
    """Boundary lattice point count of the k-fold dilate by inclusion-exclusion."""
    return sum(sign * subtotal for _, sign, subtotal in inclusion_exclusion_levels(prep, k))


@dataclass(frozen=True)
class HilbertReport:
    by_inclusion_exclusion: EhrhartPoly
    by_operator_formula: EhrhartPoly
    by_oracle: EhrhartPoly
    agree: bool
    per_face: dict[tuple[int, ...], EhrhartPoly]


def cy_hilbert_polynomial(prep: Prepared) -> HilbertReport:
    """Boundary Hilbert polynomial, three ways, with mandatory agreement.

    The inclusion-exclusion fit and the per-face table read their face
    counts from the polytope's one tight-mask histogram per dilation k.
    The oracle route enumerates every dilate again on its own.  Raises
    NotDelzantError on invalid input.
    """
    spec = prep.require_delzant().spec
    via_faces = interpolate_counts(
        lambda k: inclusion_exclusion_count(prep, k), max(spec.dim - 1, 0), "boundary"
    )
    by_operator = symbolic_ehrhart(prep, "boundary")
    by_oracle = ehrhart_interpolate(
        spec, "boundary", budget=prep.budget, charts=prep.charts
    )

    per_face = {}
    for record in prep.lattice.proper_faces():
        per_face[record.active_set] = interpolate_counts(
            lambda k, face=record.active_set: read_count(prep.histogram(k), "face", face),
            record.dim,
            "face",
        )

    agree = (
        via_faces.poly == by_operator.poly == by_oracle.poly
    )
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
            f"oracle {by_oracle.to_text()}",
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

    Raises NotDelzantError on invalid input; on valid input always returns
    a report, with each failed identity recorded rather than raised.
    """
    spec, charts, budget = prep.require_delzant().spec, prep.charts, prep.budget
    m = spec.dim
    checks: list[CheckResult] = []

    def run(name, func):
        try:
            detail = func()
            checks.append(CheckResult(name, True, detail))
        except Exception as exc:  # recorded, not raised: this is a report
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    def check_formula(operator_count, region):
        formula = operator_count(prep)
        brute = count_points(spec, 1, region, budget=budget, charts=charts)
        if formula != brute:
            raise AssertionError(f"operator count {formula} != brute count {brute}")
        return f"count {formula}"

    def check_inclusion_exclusion():
        for k in range(1, 6):
            via_faces = inclusion_exclusion_count(prep, k)
            brute = count_points(spec, k, "boundary", budget=budget, charts=charts)
            if via_faces != brute:
                raise AssertionError(f"k={k}: {via_faces} != {brute}")
        return "k = 1..5"

    def check_hilbert():
        report = cy_hilbert_polynomial(prep)
        return f"boundary Ehrhart {report.by_oracle.to_text()}"

    def check_reciprocity():
        full = ehrhart_interpolate(spec, "full", budget=budget, charts=charts)
        for k in range(1, 6):
            predicted = (-1) ** m * full.poly.evaluate(-k)
            interior = count_points(spec, k, "interior", budget=budget, charts=charts)
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
        wanted = comb(spec.num_facets + m, m)
        for sample in chamber_samples(spec, wanted):
            via_poly = prep.vol.poly.evaluate(sample)
            via_geometry = numeric_volume_at(spec, sample)
            if via_poly != via_geometry:
                raise AssertionError(f"at {sample}: {via_poly} != {via_geometry}")
        return f"{wanted} samples"

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
    run("khovanskii_vs_count", lambda: check_formula(khovanskii_count, "full"))
    run("boundary_formula_vs_count", lambda: check_formula(boundary_count_formula, "boundary"))
    run("inclusion_exclusion_vs_count", check_inclusion_exclusion)
    run("hilbert_three_way", check_hilbert)
    run("reciprocity", check_reciprocity)
    run("facet_volume_identity", check_facet_volumes)
    run("volume_oracle_samples", check_volume_samples)
    run("euler_relation", check_euler)
    run("dilation_consistency", check_dilation)
    return CrossCheckReport(ok=all(c.ok for c in checks), checks=tuple(checks))
