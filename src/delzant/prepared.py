"""One polytope's derived data, each stage built once, on first use.

Every answer of the package comes from one chain per polytope: vertex
charts -> Delzant report -> face lattice -> volume polynomial -> boundary
volume, then the Todd product on the volume or the A-hat product on the
boundary volume (``applied``), from which ``operators.operator_count``
reads the count of that kind and the formats that print
``operator_applied`` read its text.  ``operators.symbolic_ehrhart`` reads
only the Delzant-checked charts, one series per vertex, so the Ehrhart
polynomials of ``ehrhart --method operator`` and of route (b) of
``hilbert-cy`` build no volume polynomial and no applied product.  The
slab kernel's plan (``slab_plan``: the box of the vertices and the
product factors with their level tables) is built once, and each dilate
has the kernel's tight-mask histogram through it (``histogram``), read by
``read_count``, and its face-count table (``face_counts``, one
superset-sum pass over the histogram), from which inclusion-exclusion,
the per-face table and ``count --output json`` (``count``, through
``counting.read_dilate``: at k, or above k = m + 2 the fits through the
tables at k = 1..h+1) read every face count.
The brute comparison values come from a second histogram of each dilate,
built by the per-point classifier (``brute_histogram``): the two share
no code and are kept under different keys, so every brute value still
checks the kernel.  The stages built per kind or per k share one memo
dict, keyed by stage and argument.

The face lattice is built once, from the charts alone; ``lattice`` hands
it out only once the Delzant report passes, while the volume oracle's one
more stage, the anchor's triangulation, reads it with no Delzant check.
A command or report holds one ``Prepared`` and reads every stage from
it, so each is built at most once however many checks read it.

``counting``, ``volume``, ``operators`` and ``polynomial`` are loaded
lazily (see the package docstring), and this module reads them only as
``module.name`` inside the stage that needs them: the charts, the
Delzant report and the face lattice run none of them, a histogram runs
``counting`` alone, and the default budget comes from ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import counting, operators, polynomial, polytope, volume
from .errors import DEFAULT_BUDGET, NotDelzantError


@dataclass(frozen=True)
class Prepared:
    """A polytope and its lazily built stages.

    ``budget`` bounds each enumeration: both kinds of histogram built
    here and the counts that readers run with ``budget=prep.budget``.
    The kernel's histograms all read one ``slab_plan``, which lives as
    long as this object and no longer.  ``count`` goes through
    ``counting.read_dilate``, the one reader that ``count_points`` also
    calls; above k = m + 2 it, like ``counting.ehrhart_interpolate`` at
    every k, reads a two-sided fit (``counting.fit_region``) through the
    kept histograms at k = 1..h+1, which assumes Ehrhart-Macdonald
    reciprocity, so the budget bounds only those dilates' boxes.
    Reading ``charts`` raises if the family is degenerate (unbounded,
    empty, not simple, redundant); reading ``lattice`` or anything built
    on it raises NotDelzantError unless every vertex is unimodular.
    """

    spec: polytope.HalfSpaceSpec
    budget: int = DEFAULT_BUDGET
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def charts(self) -> tuple[polytope.VertexChart, ...]:
        return tuple(polytope.enumerate_vertices(self.spec))

    @cached_property
    def report(self) -> polytope.DelzantReport:
        return polytope.validate_delzant(self.spec, self.charts)

    def require_delzant(self) -> Prepared:
        """This object, once its Delzant report passes."""
        if not self.report.ok:
            raise NotDelzantError(self.report)
        return self

    @cached_property
    def _faces(self) -> polytope.FaceLattice:
        """The face lattice, built once and read by ``lattice`` and ``triangulation``."""
        return polytope.build_face_lattice(self.spec, self.charts)

    @property
    def lattice(self) -> polytope.FaceLattice:
        return self.require_delzant()._faces

    @cached_property
    def triangulation(self) -> tuple:
        """The anchor's simplices for the volume oracle; needs no Delzant report."""
        return volume.anchor_triangulation(self._faces)

    @cached_property
    def vol(self) -> volume.VolumePolynomial:
        return volume.volume_polynomial(self.spec, self.lattice)

    @cached_property
    def boundary(self) -> volume.BoundaryVolumePolynomial:
        return volume.boundary_volume_polynomial(self.vol)

    def _once(self, key, build):
        """``build()``, called on the first use of ``key`` and kept."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def applied(self, kind: str) -> polynomial.MultiPoly:
        """The Todd product on the volume (full) or the A-hat product on the
        boundary volume (boundary), applied once per kind; read by the
        operator counts and the printed ``operator_applied``."""
        return self._once(
            ("applied", kind),
            lambda: operators.apply_operator_product(
                kind, (self.boundary if kind == "boundary" else self.vol).poly
            ),
        )

    @cached_property
    def slab_plan(self) -> counting.SlabPlan:
        """The slab kernel's plan (box of the vertices, product factors and
        their level tables), built once and read by every ``histogram``;
        held nowhere else."""
        return counting.slab_plan(self.spec, self.charts)

    def histogram(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``tight_histogram``, built once per k through
        the one ``slab_plan``; read by ``counting.ehrhart_interpolate``, the
        face-count table and the reports."""
        return self._once(
            ("histogram", k),
            lambda: counting.tight_histogram(
                self.spec, k, budget=self.budget, plan=self.slab_plan
            ),
        )

    def face_counts(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``counting.face_counts`` table, built once per k
        from ``histogram(k)``."""
        return self._once(("face_counts", k), lambda: counting.face_counts(self.histogram(k)))

    def count(self, k: int, region: str = "full", face=None) -> int:
        """The count of ``region`` in the k-fold dilate (for a face, the one
        cut out by the facet index set ``face``), read by
        ``counting.read_dilate``, the reader behind ``count_points`` too,
        off the kept ``histogram`` and ``face_counts``: at k, or above k =
        m + 2 through the region's fit at k = 1..h+1; read by ``count
        --output json``."""
        return counting.read_dilate(
            self.histogram, self.charts, self.spec.dim, k, region, face, self.face_counts
        )

    def brute_histogram(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``brute_histogram``, built once per k, apart from ``histogram``."""
        return self._once(
            ("brute_histogram", k),
            lambda: counting.brute_histogram(self.spec, k, budget=self.budget, charts=self.charts),
        )
