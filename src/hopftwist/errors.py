"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
tests and the CLI can distinguish them without string matching.
"""


class HopftwistError(Exception):
    pass


class OrderMismatch(HopftwistError):
    """Binary operation on power series truncated at different orders."""


class NonUnit(HopftwistError):
    """Inversion requested for a scalar that is not invertible."""


class NonNilpotent(HopftwistError):
    """Exponential of a series whose constant term is nonzero."""


class ParseError(HopftwistError):
    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.message = message
        self.line = line
        self.column = column


class SchemaError(HopftwistError):
    """Malformed JSON input; `field` names the offending entry."""

    def __init__(self, message, field):
        super().__init__("%s (field: %s)" % (message, field))
        self.field = field


class BadPositions(HopftwistError):
    pass


class BadLeg(HopftwistError):
    pass


class ArityMismatch(HopftwistError):
    pass


class NotInvertible(HopftwistError):
    pass


class SolveTooCostly(HopftwistError):
    """An exact solve over Q(z_N), a tensor inverse or a graded rank or
    solution, priced by scalars.solve_work past scalars._MAX_SOLVE_WORK and
    refused before it is expanded: one solve, one price, one refusal."""


class NotPrimitiveRoot(HopftwistError):
    pass


class WindowOverflow(HopftwistError):
    pass


class NotAComplex(HopftwistError):
    pass


class NotUnital(HopftwistError):
    pass


class NotCounital(HopftwistError):
    pass


class NotHomogeneous(HopftwistError):
    pass


class NotAutomorphism(HopftwistError):
    pass


class NotAction(HopftwistError):
    pass


class NotFormallyNilpotent(HopftwistError):
    pass


class ZeroDegree(HopftwistError):
    pass


class DegenerateDegrees(HopftwistError):
    pass


class UnknownSuite(HopftwistError):
    pass
