"""Shared exception types and the argument rules every module applies."""

import math
import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Pointwise evaluation was requested at a non-integrable singularity."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to meet its accuracy target."""


class NotPositiveDefiniteError(ValueError):
    """A covariance matrix failed its positive-definiteness check.

    ``pivot_index`` is the 0-based index of the first failing Cholesky pivot.
    """

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is not positive definite (pivot {pivot_index})")


class MeasureOrderingError(ValueError):
    """Component intensity measures violate the absolute-continuity ordering."""


class SimulationError(RuntimeError):
    """A simulated path left the admissible state space.

    ``path_index`` identifies the first offending path; nothing is clamped,
    since silent clamping would bias cost estimates.
    """

    def __init__(self, path_index: int, message: str | None = None):
        self.path_index = path_index
        super().__init__(message or f"path {path_index} exploded (|state| > 1e12)")


def check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int: an integer, not a bool nor a float such as 256.0, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_horizon(T) -> float:
    """``T`` as a float, finite and > 0."""
    if not (isinstance(T, numbers.Real) and math.isfinite(T) and T > 0.0):
        raise DomainError(f"horizon T must be finite and > 0, got {T!r}")
    return float(T)


def shared_horizon(T1: float, T2: float, what: str) -> float:
    """The horizon of two objects (``what``) as a float, if they agree to 1e-12."""
    if abs(T1 - T2) > 1e-12:
        raise DomainError(f"horizon mismatch between {what}: {T1} and {T2}")
    return float(T1)
