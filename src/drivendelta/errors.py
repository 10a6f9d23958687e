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


# the numeric failures that cli.main reports with exit code 2; a failed
# rate is not among them, since it is a non-finite value, not an exception
ENGINE_ERRORS = (ConvergenceError, NumericError)
