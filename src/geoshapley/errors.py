"""Exception hierarchy shared by all engines."""


class GeoShapleyError(Exception):
    """Base class for all library errors."""


class DomainError(GeoShapleyError):
    """Input violates a precondition of the requested operation."""


class GeneralPositionError(DomainError):
    """A general-position assumption of the hull or disk engine
    (collinearity, cocircularity, diametral conflicts) does not hold."""

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = tuple(offending)


class SizeLimitError(GeoShapleyError):
    """Instance exceeds the hard size guard of a brute-force algorithm."""


class ConsistencyError(GeoShapleyError):
    """An internal cross-check failed; indicates a bug, not bad input."""
