"""Exception hierarchy shared by all modules.

Every library-level failure derives from DelzantError and carries an
``exit_code`` used by the command line frontend.  The codes are disjoint:

    2  usage: a bad flag, flag combination or environment value
    3  input file cannot be parsed
    4  polytope structure rejected (not Delzant, not simple, unbounded, ...)
    5  budget exceeded (points to classify, or facet subsets to walk)
    6  formula or consistency violation (these signal bugs, never bad luck)
"""

from __future__ import annotations


def cut(token) -> str:
    """A token or number as a message shows it: its first 20 characters.

    An integer loses all but 40-odd leading digits before it is converted
    (bit_length * 3 // 10 never exceeds its digit count), so one over
    Python's int-to-str digit limit shows too.
    """
    if isinstance(token, int):
        drop = max(token.bit_length() * 3 // 10 - 40, 0)
        text = ("-" if token < 0 else "") + str(abs(token) // 10**drop)
    else:
        text = str(token)
    return text if len(text) <= 20 else text[:20] + "..."


class DelzantError(Exception):
    exit_code = 1


class UsageError(DelzantError):
    """A flag or environment value is out of range or malformed."""

    exit_code = 2


class PolytopeParseError(DelzantError):
    """Input file rejected.  ``line`` is 1-based, 0 means whole-file."""

    exit_code = 3

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimMismatchError(PolytopeParseError):
    pass


class NonPrimitiveNormalError(PolytopeParseError):
    pass


class NonIntegerOffsetError(PolytopeParseError):
    pass


class PolytopeStructureError(DelzantError):
    exit_code = 4


class NonSimpleError(PolytopeStructureError):
    """A vertex lies on more than ``dim`` facets."""

    def __init__(self, point, facets_1based):
        self.point = tuple(point)
        self.facets = tuple(facets_1based)
        coords = ", ".join(str(c) for c in self.point)
        super().__init__(
            f"vertex ({coords}) lies on {len(self.facets)} facets "
            f"{list(self.facets)}; polytope is not simple"
        )


class UnboundedError(PolytopeStructureError):
    def __init__(self, ray):
        self.ray = tuple(ray)
        super().__init__(f"polytope is unbounded along {self.ray}")


class EmptyPolytopeError(PolytopeStructureError):
    pass


class RedundantFacetError(PolytopeStructureError):
    def __init__(self, facets_1based):
        self.facets = tuple(facets_1based)
        super().__init__(
            f"facets {list(self.facets)} carry no vertex (redundant inequality)"
        )


class NotDelzantError(PolytopeStructureError):
    """Raised by operations that require a Delzant polytope."""

    def __init__(self, report):
        self.report = report
        super().__init__("polytope is not Delzant: " + report.summary())


# points to classify per enumeration, or facet subsets to walk, unless
# --budget or $DELZANT_BUDGET says otherwise
DEFAULT_BUDGET = 10**8


class BudgetExceededError(DelzantError):
    exit_code = 5

    def __init__(
        self,
        required: int,
        budget: int,
        stage: str = "enumeration",
        unit: str = "point classifications",
    ):
        self.required = required
        self.budget = budget
        super().__init__(f"{stage} needs {required} {unit}, budget is {budget}")


class ChamberCrossedError(DelzantError):
    """A sample offset vector has a different vertex-facet incidence than the anchor.

    Names the first anchor vertex that fails by its 1-based facet set, with
    its point at the sample and either a facet it violates or the facets it
    is tight on.
    """

    def __init__(self, facets_1based, point, violated=None, tight=()):
        self.facets = tuple(facets_1based)
        self.point = tuple(point)
        self.violated = violated
        self.tight = tuple(tight)
        coords = ", ".join(str(c) for c in self.point)
        if violated is not None:
            broken = f"violates facet {violated}"
        else:
            broken = f"is tight on facets {list(self.tight)}"
        super().__init__(
            "sample offsets lie outside the chamber of the anchor offsets: "
            f"the vertex on facets {list(self.facets)} moves to ({coords}), which {broken}"
        )


class NotPolynomialError(DelzantError):
    exit_code = 6


class FormulaViolationError(DelzantError):
    exit_code = 6


class DisagreementError(DelzantError):
    """The three boundary Hilbert polynomial routes disagree.  Always a bug."""

    exit_code = 6

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
