"""Exact lattice point counts, Ehrhart polynomials, and boundary Hilbert
polynomials for Delzant polytopes, with every formula cross-checked against
brute-force enumeration.

Importing the package runs none of its modules.  The five that only some
commands need (``polynomial``, ``counting``, ``volume``, ``operators``,
``hilbert``) are registered in ``sys.modules`` unrun and run on their
first attribute read (``_LazyModule``); the rest (``cli``, ``prepared``,
``polyfile``, ``polytope``, ``linalg``, ``errors``) import as usual and
read a lazy module only as ``module.name`` when a command calls it.  So
``validate`` and ``faces`` run no lazy module, ``count`` runs
``counting`` alone, and only ``hilbert-cy`` and ``cross-check`` run all
five.  The names of ``__all__`` resolve on first use (PEP 562).
"""

import _thread
import importlib.util
import sys
import types

__version__ = "0.1.0"

LAZY_MODULES = ("polynomial", "counting", "volume", "operators", "hilbert")

# module -> the names the package re-exports from it
_EXPORTED = {
    "counting": ("count_points", "ehrhart_interpolate"),
    "errors": ("DelzantError",),
    "hilbert": (
        "CrossCheckReport",
        "HilbertReport",
        "cross_check",
        "cy_hilbert_polynomial",
        "inclusion_exclusion_count",
    ),
    "operators": (
        "apply_operator_product",
        "operator_count",
        "series_coefficients",
        "symbolic_ehrhart",
    ),
    "polyfile": ("parse_polytope_file",),
    "polynomial": ("MultiPoly", "Scalar", "UniPoly", "euler_expansion_identity"),
    "polytope": (
        "FaceLattice",
        "HalfSpaceSpec",
        "VertexChart",
        "build_face_lattice",
        "enumerate_vertices",
        "validate_delzant",
    ),
    "prepared": ("Prepared",),
    "volume": (
        "BoundaryVolumePolynomial",
        "VolumePolynomial",
        "boundary_volume_polynomial",
        "numeric_volume_at",
        "volume_polynomial",
    ),
}
_HOME = {name: module for module, names in _EXPORTED.items() for name in names}

__all__ = sorted(_HOME)


_RUN_LOCK = _thread.RLock()  # from _thread, which is built in: threading is an import to pay
_running: set[int] = set()  # ids of the lazy modules the lock's holder is running


class _LazyModule(types.ModuleType):
    """A submodule in ``sys.modules`` that runs on its first attribute read.

    The read that runs it holds one lock for the package until the module
    has run, and only then makes it a plain module, so a first read from
    another thread waits instead of finding it half run, as it does with
    ``importlib.util.LazyLoader`` (CPython 3.10.13, 3.11.7 and 3.12.1).  A
    read by the running thread itself (``dataclass`` reads its module's
    ``__dict__``) sees the module as far as it has run, as an ordinary
    import would.
    """

    def __getattribute__(self, attr):
        with _RUN_LOCK:
            if type(self) is _LazyModule and id(self) not in _running:
                _running.add(id(self))
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                finally:
                    _running.discard(id(self))
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _register_lazily(name: str) -> _LazyModule:
    """Submodule ``name``, in ``sys.modules`` and not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


globals().update({name: _register_lazily(name) for name in LAZY_MODULES})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
