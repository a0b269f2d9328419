"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """Requested level exceeds the memory budget, or the dense eigensolver's level limit."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach its tolerance within its limit.

    The limits are the rotation sweeps of the dense eigensolver, whose
    residual is the off-diagonal norm, and the Newton step cap of the `ns`
    outlier zeros, whose residual is the last Newton step.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InsufficientDataError(RuntimeError):
    """Not enough usable data points for a statistical estimate."""
