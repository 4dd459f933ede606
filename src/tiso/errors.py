"""Exception types shared across the package."""


class TisoError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(TisoError):
    pass


class ReducibleModulus(TisoError):
    pass


class DegreeMismatch(TisoError):
    pass


class FieldMismatch(TisoError):
    pass


class DivideByZero(TisoError):
    pass


class ZeroPolynomial(TisoError):
    pass


class RetryExhausted(TisoError):
    """Randomized splitting exceeded its retry budget (internal alarm)."""


class ShapeMismatch(TisoError):
    pass


class Singular(TisoError):
    pass


class NotSimpleEigenvalue(TisoError):
    pass


class BadParams(TisoError):
    pass


class TooLarge(TisoError):
    pass


class InvariantViolation(TisoError):
    """Internal-consistency alarm: an invariant of an exact computation failed."""


class NonIntegralCount(TisoError):
    """Internal-consistency alarm: a count formula evaluated to a non-integer."""
