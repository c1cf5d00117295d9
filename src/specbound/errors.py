"""Exception hierarchy: two families, four classes.

Callers act on two families: InputError (bad matrices, bad files,
out-of-range arguments; CLI exit code 2) and NumericError (iterations
that did not converge, overflow; exit code 3). ConvergenceError, a
NumericError, also carries the residual and iteration count it stopped at.
"""

__all__ = ["SpecboundError", "InputError", "NumericError", "ConvergenceError"]


class SpecboundError(Exception):
    """Base class for all package errors."""


class InputError(SpecboundError):
    """Invalid input: bad file, bad matrix, out-of-domain argument."""


class NumericError(SpecboundError):
    """Numeric failure: non-convergence, overflow."""


class ConvergenceError(NumericError):
    """An iteration hit its step limit before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
