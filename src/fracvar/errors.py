"""Exception taxonomy shared by all fracvar modules."""

from __future__ import annotations


class FracvarError(Exception):
    """Base class for all errors raised by fracvar."""


class DomainError(FracvarError):
    """A numeric argument is outside the domain an operation is defined on."""


class RangeError(FracvarError):
    """A tabulated kernel's samples end before the largest distance s = b - a
    that a plan on the grid needs (raised by ``make_plan``)."""


class OrderError(FracvarError):
    """A fractional order is outside the interval an operator admits."""


class GridMismatch(FracvarError):
    """An object does not fit the grid it must share: a field on another grid
    or with the wrong component count, or a Lagrangian output of the wrong
    shape."""


class AxisError(FracvarError):
    """An axis index does not exist on the given grid."""


class LengthMismatch(GridMismatch):
    """Per-axis argument arrays do not all have length equal to the grid dimension."""


class BoundaryViolation(FracvarError):
    """A field's boundary trace does not match the prescribed boundary data."""


class NoConvergence(FracvarError):
    """An iterative solve hit its iteration cap.

    Carries the best iterate so callers can inspect or restart.
    """

    def __init__(self, message: str, best=None, iterations: int = 0,
                 gradient_norm: float = float("nan")):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.gradient_norm = gradient_norm


class GradientCheckError(FracvarError):
    """A Lagrangian's supplied partials disagree with finite differences of eval."""


class ParseError(FracvarError):
    """A function expression failed to parse.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ParseError):
    """A function expression references a variable not available at its arity."""


class EvalError(FracvarError):
    """A function expression produced a non-finite value on the grid."""


class ConfigError(FracvarError):
    """An experiment configuration file is malformed or inconsistent.

    Carries an optional field path for diagnostics.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{message}" + (f" (field: {field})" if field else ""))
        self.field = field


class DegenerateEnergy(UserWarning):
    """The Dirichlet energy is identically zero (all p-set weights vanish)."""
