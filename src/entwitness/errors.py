"""Exception types raised across the package."""


class EntwitnessError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(EntwitnessError):
    """A bracketed root-find did not close its bracket within its evaluation budget."""


class NotDensityMatrix(EntwitnessError):
    """Trace or positivity of a supposed density matrix is violated."""


class QuadratureUnconverged(EntwitnessError):
    """Numerical quadrature did not converge under node doubling."""


class EmptyTrajectory(EntwitnessError):
    """Operation requires a non-empty trajectory."""


class ParseError(EntwitnessError):
    """Configuration text could not be parsed."""


class ValidationError(EntwitnessError):
    """A value violates an invariant; the message names the offending key."""
