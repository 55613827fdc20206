"""Exception types raised across the package."""


class EntwitnessError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(EntwitnessError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(EntwitnessError):
    """An iterative eigenvalue solve did not converge."""


class NotDensityMatrix(EntwitnessError):
    """Trace or positivity of a supposed density matrix is violated."""


class QuadratureUnconverged(EntwitnessError):
    """Numerical quadrature did not converge under node doubling."""


class NotXState(EntwitnessError):
    """Density matrix is not of X form (diagonal plus anti-diagonal)."""


class EmptyTrajectory(EntwitnessError):
    """Operation requires a non-empty trajectory."""


class ParseError(EntwitnessError):
    """Configuration text could not be parsed."""


class ValidationError(EntwitnessError):
    """A value violates an invariant; the message names the offending key."""
