"""Exception types shared across the package.

Two families matter to callers (and to the CLI exit codes): bad inputs
(`DomainError`, exit code 2) and numerical breakdowns (`NumericalError`,
exit code 3).
"""

import math


def shown(value) -> str:
    """str(value), or an int too long for str() (past 4300 digits) as its power of ten."""
    try:
        return str(value)
    except ValueError:
        return f"about {'-' if value < 0 else ''}10^{round(math.log10(abs(value)))}"


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested too close to a pole of an elliptic function."""


class InsideWedgeError(DomainError):
    """The requested quantity is undefined inside the hyperbolic wedge."""


class NumericalError(RuntimeError):
    """An internal numerical procedure failed to converge or lost accuracy."""

    def __init__(self, message: str, abscissa: float | None = None):
        if abscissa is not None:
            message = f"{message} (at abscissa {abscissa!r})"
        super().__init__(message)
        self.abscissa = abscissa


class StabilityError(NumericalError):
    """A time step violates the stability constraint of an integrator."""


class ResolutionError(NumericalError):
    """A scan grid is too coarse to resolve the features it is looking for."""
