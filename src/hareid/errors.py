"""Exception types shared across the package."""


class HareidError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HareidError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class FormatError(HareidError, ValueError):
    """A binary or text artifact does not match its declared format."""


class ValidationError(HareidError, ValueError):
    """Dataset metadata violates a structural invariant."""


class ConfigError(HareidError, ValueError):
    """A configuration value is inconsistent or unusable."""


class NumericError(HareidError, ArithmeticError):
    """A computation produced or received non-finite values; ``row`` is the
    first bad row of a stack, when the error is about one."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
