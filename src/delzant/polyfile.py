"""Line-oriented polytope input format.

    # comment
    name unit 2-simplex      (optional)
    dim 2
    facet -1 0 0
    facet 0 -1 0
    facet 1 1 1

Each facet line lists the m integer normal components followed by the
integer offset.  '#' starts a comment and blank lines are skipped.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    DimMismatchError,
    NonIntegerOffsetError,
    NonPrimitiveNormalError,
    PolytopeParseError,
)
from .polytope import HalfSpaceSpec


def _parse_int(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        return None


def parse_polytope_file(text: str, *, normalize: bool = False) -> HalfSpaceSpec:
    """Parse the text of a polytope file.

    With ``normalize``, a non-primitive normal is divided by its gcd and
    the offset adjusted, provided the offset is divisible; otherwise the
    line is rejected, since rounding would change the polytope.
    """
    dim: int | None = None
    dim_line = 0
    name: str | None = None
    facets: list[tuple[tuple[int, ...], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "dim":
            if dim is not None:
                raise PolytopeParseError(
                    f"duplicate 'dim' (first on line {dim_line})", lineno
                )
            if len(fields) != 2 or (value := _parse_int(fields[1])) is None:
                raise PolytopeParseError("'dim' needs one integer", lineno)
            if value < 1:
                raise PolytopeParseError(f"dim must be >= 1, got {value}", lineno)
            dim = value
            dim_line = lineno
        elif keyword == "name":
            if len(fields) < 2:
                raise PolytopeParseError("'name' needs a value", lineno)
            name = " ".join(fields[1:])
        elif keyword == "facet":
            if dim is None:
                raise PolytopeParseError("'facet' before 'dim'", lineno)
            values = fields[1:]
            if len(values) != dim + 1:
                raise DimMismatchError(
                    f"facet line needs {dim + 1} integers for dim {dim}, "
                    f"got {len(values)}",
                    lineno,
                )
            parsed = [_parse_int(tok) for tok in values]
            for pos, (tok, val) in enumerate(zip(values, parsed)):
                if val is None:
                    if pos == dim and _parse_float(tok) is not None:
                        raise NonIntegerOffsetError(
                            f"offset {tok} is not an integer", lineno
                        )
                    raise PolytopeParseError(f"bad integer {tok!r}", lineno)
            normal = tuple(parsed[:dim])
            offset = parsed[dim]
            if all(x == 0 for x in normal):
                raise PolytopeParseError("zero normal vector", lineno)
            g = gcd(*(abs(x) for x in normal))
            if g != 1:
                if not normalize:
                    raise NonPrimitiveNormalError(
                        f"normal {list(normal)} has gcd {g}; "
                        "rerun with --normalize to divide it out",
                        lineno,
                    )
                if offset % g != 0:
                    raise NonPrimitiveNormalError(
                        f"normal {list(normal)} has gcd {g} but offset {offset} "
                        "is not divisible by it",
                        lineno,
                    )
                normal = tuple(x // g for x in normal)
                offset //= g
            facets.append((normal, offset))
        else:
            raise PolytopeParseError(f"unknown keyword {keyword!r}", lineno)

    if dim is None:
        raise PolytopeParseError("missing 'dim' line")
    try:
        return HalfSpaceSpec(dim, facets, name=name)
    except ValueError as exc:
        raise PolytopeParseError(str(exc)) from exc


def _parse_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None
