"""Exception types shared across the package."""


class CascadeError(Exception):
    """Base class for all package errors."""


class ConfigError(CascadeError):
    """Invalid parameters, scenario files or CLI flags."""


class NumericalError(CascadeError):
    """A computation failed or produced non-finite results."""


class SingularSystemError(ConfigError):
    """The steady-state problem has no unique solution (w_t = 0): the
    configured system is closed, which is bad input, not a solver failure."""


class SolverFailure(NumericalError):
    """The linear solver failed; carries a condition-number estimate."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class DegenerateRootError(NumericalError):
    """Denominator roots too close for a stable pole decomposition."""


class DomainError(CascadeError):
    """Argument outside a function's supported domain."""


class SelectionRuleError(ConfigError):
    """Angular-momentum selection rule violated by the configured levels."""
