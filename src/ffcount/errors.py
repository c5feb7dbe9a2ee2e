"""Exception types shared across the package."""


class FFCountError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(FFCountError):
    """A computation would exceed a configured resource budget."""


class ConsistencyError(FFCountError):
    """Two independent computation paths disagreed beyond tolerance."""


class RootFindingError(FFCountError):
    """The simultaneous root iteration failed to converge; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class OutsideProvenRangeError(ValueError):
    """A main term was asked for outside its proven range without override."""


class UndefinedMainTermError(ValueError):
    """A main term has no value at these arguments, override or not."""
