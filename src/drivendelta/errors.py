"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical step returned an unreliable result (exit code 2 in
    ``cli.main``); a failed rate is a value that is not finite, not this."""


class ConvergenceError(NumericError):
    """A numerical scheme failed to reach its accuracy target.

    Carries a ``diagnostics`` dict (step sizes, error estimates) so callers
    can report what was achieved.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
