"""One polytope's derived data, each stage built once, on first use.

Every answer of the package comes from one chain per polytope: vertex
charts -> Delzant report -> face lattice -> volume polynomial -> boundary
volume, then the Todd and A-hat operator products applied to those, and
the tight-mask histogram of each dilate, built by the slab kernel, and
its face-count table (``counting.face_counts``, one superset-sum pass),
from which inclusion-exclusion, the per-face table and ``count_report``
read every face count; the per-face histogram scan
``read_count(..., "face")`` is kept as the tests' oracle.  Each
operator series is expanded to its target's degree, and
``operators.operator_count`` and ``symbolic_ehrhart`` read the count and
the Ehrhart polynomial off the one applied polynomial of a kind.  The face lattice is built once, from the charts alone;
``lattice`` hands it out only once the Delzant report passes, while the
volume oracle's one more stage, the anchor's triangulation, reads it
with no Delzant check.  A command or report holds one ``Prepared``
and reads every stage from it, so each is built at most once however
many checks read it.  The brute comparison values come from a second
histogram of each dilate, built by the per-point classifier
(``brute_histogram``) and kept apart from the kernel's: the two share
no code and no memo, so every brute value still checks the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import counting, operators, polytope, volume
from .errors import NotDelzantError
from .polynomial import MultiPoly


@dataclass(frozen=True)
class Prepared:
    """A polytope and its lazily built stages.

    ``budget`` bounds each enumeration: both kinds of histogram built
    here and the counts that readers run with ``budget=prep.budget``.
    Reading ``charts`` raises if the family is degenerate (unbounded,
    empty, not simple, redundant); reading ``lattice`` or anything built
    on it raises NotDelzantError unless every vertex is unimodular.
    """

    spec: polytope.HalfSpaceSpec
    budget: int = counting.DEFAULT_BUDGET
    _applied: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _histograms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _brute: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def applied(self, kind: str) -> MultiPoly:
        """The Todd product on the volume (full) or the A-hat product on the
        boundary volume (boundary), applied once per kind.

        The count and the Ehrhart polynomial of the kind are both read from
        this one polynomial (``operators.operator_count``, ``symbolic_ehrhart``).
        """
        if kind not in self._applied:
            target = self.boundary.poly if kind == "boundary" else self.vol.poly
            self._applied[kind] = operators.apply_operator_product(kind, target)
        return self._applied[kind]

    def histogram(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``tight_histogram``, built once per k."""
        if k not in self._histograms:
            self._histograms[k] = counting.tight_histogram(
                self.spec, k, budget=self.budget, charts=self.charts
            )
        return self._histograms[k]

    def face_counts(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``counting.face_counts`` table, built once per k
        from ``histogram(k)``."""
        if k not in self._tables:
            self._tables[k] = counting.face_counts(self.histogram(k))
        return self._tables[k]

    def brute_histogram(self, k: int) -> dict[int, int]:
        """The k-fold dilate's ``brute_histogram``, built once per k, apart from ``histogram``."""
        if k not in self._brute:
            self._brute[k] = counting.brute_histogram(
                self.spec, k, budget=self.budget, charts=self.charts
            )
        return self._brute[k]
