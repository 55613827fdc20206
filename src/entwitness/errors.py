"""Exception types raised across the package."""


class EntwitnessError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(EntwitnessError):
    """A bracketed root-find did not close its bracket within its evaluation budget."""


class NotDensityMatrix(EntwitnessError):
    """A sampled state is not physical: a population outside [0, 1] (trace or positivity
    violated), ``mu`` outside [-1, 2], or ``lhs < mu`` against the uncertainty relation."""


class QuadratureUnconverged(EntwitnessError):
    """Numerical quadrature did not converge under node doubling."""


class ParseError(EntwitnessError):
    """Configuration text could not be parsed."""


class ValidationError(EntwitnessError):
    """A value violates an invariant; the message names the offending key."""
