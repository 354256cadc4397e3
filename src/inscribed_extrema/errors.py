"""Exception types shared across the package."""


class InscribedExtremaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(InscribedExtremaError):
    pass


class WrongDimension(DimensionMismatch):
    pass


class DimensionTooSmall(InscribedExtremaError):
    pass


class NotPositiveDefinite(InscribedExtremaError):
    pass


class OutOfRange(InscribedExtremaError):
    """A result that float64 cannot hold as a normal number (beyond about 1e+-308)."""


class NonPositiveInput(InscribedExtremaError):
    pass


class NotOrthotope(InscribedExtremaError):
    pass


class NotInscribed(InscribedExtremaError):
    pass


class DegenerateParallelepiped(InscribedExtremaError):
    pass


class NotConverged(InscribedExtremaError):
    """Iteration budget exhausted, or the target is provably unreachable.

    Carries the best report found so far in ``report`` when the failing
    routine produced one.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateVertex(InscribedExtremaError):
    pass


class NotOnBoundary(InscribedExtremaError):
    pass
