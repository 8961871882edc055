"""Exception types shared across the package."""


class V2GridError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(V2GridError, ValueError):
    """Input data violates an operation's precondition."""


class InvalidGeometryError(V2GridError, ValueError):
    """Degenerate or unusable polygon geometry."""


class InvalidConfigError(V2GridError, ValueError):
    """Configuration values violate their invariants."""


class UndefinedFractionError(V2GridError, ArithmeticError):
    """A ratio is undefined because its denominator vanishes."""


class MissingHouseholdDataError(V2GridError, LookupError):
    """A planning area lacks the household fields needed for the baseline."""


class InvariantViolationError(V2GridError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
