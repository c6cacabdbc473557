"""Exception types shared across the package."""


class FilippovError(Exception):
    """Base class for all errors raised by this package."""


# --- expression DSL ---

class ExprSyntaxError(FilippovError):
    """Malformed expression text.

    ``offset`` is the 1-based byte position of the offending token and
    ``expected`` describes what the parser would have accepted there.
    """

    def __init__(self, message: str, offset: int, expected: str = ""):
        self.offset = offset
        self.expected = expected
        detail = f"syntax error at offset {offset}: {message}"
        if expected:
            detail += f", expected {expected}"
        super().__init__(detail)


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier is not one of x1, x2, x3 or a supported function name."""

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        self.expected = "x1, x2, x3 or a function name"
        FilippovError.__init__(
            self, f"unknown identifier '{name}' at offset {offset}"
        )


class EvalDomainError(FilippovError):
    """Expression evaluation left the real domain (sqrt of a negative,
    division by zero, overflow, ...)."""


# --- boundary-equilibrium data ---

class NotAnEquilibriumError(FilippovError):
    """The supplied point is not a zero of the left field on the surface."""


class TangentRightFieldError(FilippovError):
    """The right field is tangent to the switching surface at the point,
    so the sliding Jacobian construction is undefined."""


class DegenerateGradientError(FilippovError):
    """The switching-function gradient vanishes at the point."""


class NonFiniteDataError(FilippovError):
    """A quantity of the local data at the equilibrium (p, q, A, or one
    derived from them) is not a finite number."""


class NotOnSurfaceError(FilippovError):
    """The point does not lie on the switching surface to tolerance."""


class DegenerateSlidingError(FilippovError):
    """The two normal rates coincide, so the sliding field is undefined."""

    def __init__(self, rate_left: float, rate_right: float):
        self.rate_left = rate_left
        self.rate_right = rate_right
        super().__init__(f"normal rates coincide ({rate_left:.3e} vs "
                         f"{rate_right:.3e})")


# --- spectral analysis ---

class NearDegenerateError(FilippovError):
    """The characteristic cubic has (nearly) repeated roots; the caller
    decides how to proceed."""


class NoZeroEigenvalueError(FilippovError):
    """Deflation of the known zero eigenvalue was requested for a matrix
    that does not have one."""


# --- hybrid system ---

class ConstraintViolationError(FilippovError):
    """Hybrid-system parameters violate their validity constraints."""


class ToleranceNotMetError(FilippovError):
    """An event's refinement missed its tolerance within its iteration
    limit."""


# --- simulation ---

class RepellingSlidingEncounteredError(FilippovError):
    """The orbit reached a repelling sliding region, where forward
    evolution is not unique; the simulation aborts."""


class NonFiniteStateError(FilippovError):
    """Integration produced a non-finite state."""
