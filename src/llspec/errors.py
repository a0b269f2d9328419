"""Exception types shared across the library, and the finite-float guard that raises one."""

import math


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


def _finite(value, name: str = "parameter") -> float:
    """float(value), refused unless finite: the guard of every float argument."""
    try:
        x = float(value)
    except OverflowError:  # an int or Fraction past the float range
        raise DomainError(f"{name} must be finite, got a value past the float range") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x
