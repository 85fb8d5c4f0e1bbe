"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class DomainError(ValueError):
    """Input lies outside the supported domain."""


class BudgetError(ValueError):
    """A feasibility guard (table size, enumeration count) was exceeded."""


class CountOverflowError(OverflowError):
    """An enumeration count does not fit a 64-bit integer."""


class InvarianceViolationError(ValueError):
    """A callback declared invariant was found not to be.

    Carries the offending permutation in ``permutation``.
    """

    def __init__(self, message, permutation=None):
        super().__init__(message)
        self.permutation = permutation


class UnsupportedInspectionError(TypeError):
    """The requested internal quantity is never materialized by this variant."""


class ConditioningError(FloatingPointError):
    """A derived constant left the numerically safe range."""


class DivisionGuardError(ZeroDivisionError):
    """A relative metric was requested against an all-zero reference."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite.

    ``report`` holds the last good training report.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ValueError):
    """Invalid or unknown run configuration."""


class WorkerError(RuntimeError):
    """A worker process died, or what it sent back cannot be read."""
