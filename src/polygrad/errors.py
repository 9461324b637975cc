"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or degenerate dimensions."""


class NumericOverflowError(ArithmeticError):
    """A computation produced NaN or Inf. Carries the epoch and batch when known."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class DegenerateDistributionError(ValueError):
    """A statistic is undefined for the given sample (e.g. zero mean norm)."""


class CsvParseError(ValueError):
    """CSV ingestion failed. Carries 1-based row/column location when known."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class ConfigError(ValueError):
    """A config or plan file is invalid. Carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class MemoryBudgetError(ValueError):
    """A requested Jacobian-stream buffer would exceed the configured cap."""
