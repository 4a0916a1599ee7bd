"""Exact lattice point counts, Ehrhart polynomials, and boundary Hilbert
polynomials for Delzant polytopes, with every formula cross-checked against
brute-force enumeration."""

from .counting import count_points, ehrhart_interpolate
from .errors import DelzantError
from .hilbert import (
    CrossCheckReport,
    HilbertReport,
    cross_check,
    cy_hilbert_polynomial,
    inclusion_exclusion_count,
)
from .operators import (
    apply_operator_product,
    operator_count,
    series_coefficients,
    symbolic_ehrhart,
)
from .polyfile import parse_polytope_file
from .polynomial import MultiPoly, Scalar, UniPoly, euler_expansion_identity
from .polytope import (
    FaceLattice,
    HalfSpaceSpec,
    VertexChart,
    build_face_lattice,
    enumerate_vertices,
    validate_delzant,
)
from .prepared import Prepared
from .volume import (
    BoundaryVolumePolynomial,
    VolumePolynomial,
    boundary_volume_polynomial,
    numeric_volume_at,
    volume_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryVolumePolynomial",
    "CrossCheckReport",
    "DelzantError",
    "FaceLattice",
    "HalfSpaceSpec",
    "HilbertReport",
    "MultiPoly",
    "Prepared",
    "Scalar",
    "UniPoly",
    "VertexChart",
    "VolumePolynomial",
    "apply_operator_product",
    "boundary_volume_polynomial",
    "build_face_lattice",
    "count_points",
    "cross_check",
    "cy_hilbert_polynomial",
    "ehrhart_interpolate",
    "enumerate_vertices",
    "euler_expansion_identity",
    "inclusion_exclusion_count",
    "numeric_volume_at",
    "operator_count",
    "parse_polytope_file",
    "series_coefficients",
    "symbolic_ehrhart",
    "validate_delzant",
    "volume_polynomial",
]
