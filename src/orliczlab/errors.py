"""Exception hierarchy shared by all orliczlab modules."""


class OrliczLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OrliczLabError):
    """A scenario or config fragment failed validation; message names the field."""


class SpaceMismatch(OrliczLabError):
    """A function is bound to a different measure space than the operation expects."""


class NegativeInput(OrliczLabError, ValueError):
    """An operation restricted to nonnegative functions received negative values."""


class PreconditionViolated(OrliczLabError, ValueError):
    """A documented precondition on the inputs does not hold."""


class BracketFailure(OrliczLabError, RuntimeError):
    """A search bracket could not be established within the doubling budget."""


class SingularLambda(OrliczLabError, ValueError):
    """Resolvent parameter is zero or too close to the operator's predicted spectrum."""


class SpectralOracleError(OrliczLabError, RuntimeError):
    """The dense eigenvalue oracle returned values incompatible with a real spectrum."""
