"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, everything else
raised during a run -> 3.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field, unknown name, ...)."""


class ContractError(ValueError):
    """An operation was called with arguments violating its precondition."""


class DomainError(ValueError):
    """A parameter left the admissible box; message names the coordinate."""


class DegenerateModelError(ValueError):
    """The model is degenerate at the requested point (zero norming, singular design)."""


class DataError(RuntimeError):
    """Observed data produced non-finite values during a computation."""


class NonConvergenceError(RuntimeError):
    """Optimization failed to converge.

    Carries the best point seen so that callers can still record a result.
    """

    def __init__(self, message, best_point=None):
        super().__init__(message)
        self.best_point = best_point
