"""Exception types shared across the package."""

from __future__ import annotations


class WavemetricError(Exception):
    """Base class for all package-specific errors."""


class ExpressionError(WavemetricError, ValueError):
    """Syntax, unknown-identifier or arity error in a coefficient expression.

    Carries the 1-based byte offset of the offending token and, for syntax
    errors, the set of token kinds that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(sorted(expected)) + ")"
        super().__init__(detail)


class DomainEvalError(WavemetricError, ValueError):
    """Evaluation left the real domain (log/sqrt of a negative, bad power).

    Carries the evaluation point and the text of the offending sub-expression.
    """

    def __init__(self, message: str, point=None, fragment: str = ""):
        self.point = point
        self.fragment = fragment
        detail = message
        if fragment:
            detail += f" in '{fragment}'"
        if point is not None:
            detail += f" at point {point}"
        super().__init__(detail)


class MatrixError(WavemetricError, ValueError):
    """Structural violation: not Hermitian, not SPD, wrong shape."""


class SingularMatrixError(MatrixError):
    """SPD operation hit an eigenvalue below the relative floor."""


class ConvergenceError(WavemetricError, RuntimeError):
    """The implicit midpoint fixed point stalled; the message gives its residual."""


class ValidationError(WavemetricError, ValueError):
    """A coefficient system failed validation at a sampled point."""


class UnsupportedSystemError(WavemetricError, TypeError):
    """Operation requires structure this system does not declare."""


class MajorantError(WavemetricError, RuntimeError):
    """Majorant construction failed to dominate after slack doubling."""


class InstabilityError(WavemetricError, RuntimeError):
    """Time integration produced non-finite values."""

    def __init__(self, step: int, t: float, suggestion: str):
        self.step = step
        self.t = t
        super().__init__(
            f"non-finite state at step {step} (t={t:.6g}); {suggestion}"
        )


class ScenarioError(WavemetricError, ValueError):
    """Malformed scenario JSON (unknown key, missing field, bad value)."""
