"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach its accuracy target.

    Carries a ``diagnostics`` dict (step sizes, error estimates) so callers
    can report what was achieved.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NumericError(RuntimeError):
    """A quadrature or root-finding step returned an unreliable result."""


class DegeneratePathError(ValueError):
    """Boundary-value path with coincident start and end times."""


class InfiniteRateError(ArithmeticError):
    """Survival amplitude is exactly zero; the decay rate diverges."""


class InsufficientDataError(ValueError):
    """Not enough detected structure to estimate the requested statistic."""


# failures of a rate engine at one parameter point; anything else raised
# from an engine call is a bug or invalid input, not a missing sample
ENGINE_ERRORS = (ConvergenceError, NumericError, InfiniteRateError,
                 DegeneratePathError)
