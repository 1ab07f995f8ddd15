"""Exception hierarchy shared by all modules, and the one check of an integer argument."""


class SlaterAdditionError(Exception):
    """Base class for all library errors."""


class DomainError(SlaterAdditionError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation lands exactly on a pole (e.g. Bk^2 + C = 0)."""


class CapacityError(SlaterAdditionError, OverflowError):
    """Exact-integer caches or recurrences exceeded their configured bounds."""


class RangeError(SlaterAdditionError, OverflowError):
    """Intermediate scaling (e.g. exp(-z^2)) overflows double precision."""


class TruncationError(SlaterAdditionError, ArithmeticError):
    """An infinite series failed to converge within its term budget."""


class QuadratureError(SlaterAdditionError, ArithmeticError):
    """An oracle integral failed to converge; carries the partial estimate."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _check_index(name: str, arg: str, value: int, low: float = 0) -> None:
    """DomainError unless value (an index, order, degree or budget) is an int >= low, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DomainError(f"{name}: {arg} must be an integer >= {low}, got {value!r}")
