"""Exception hierarchy.

Two families matter to callers: input problems (bad matrices, bad files,
out-of-range arguments) and numeric failures (iterations that did not
converge, overflow). The CLI maps the first family to exit code 2 and the
second to exit code 3.
"""


class SpecboundError(Exception):
    """Base class for all package errors."""


class InputError(SpecboundError):
    """Invalid input: bad file, bad matrix, out-of-domain argument."""


class MatrixFormatError(InputError):
    """A matrix file could not be parsed."""


class ZeroMatrixError(InputError):
    """An operation that needs a positive norm received the zero matrix."""


class DomainError(InputError):
    """An argument lies outside the mathematical domain of the operation."""


class NumericError(SpecboundError):
    """Numeric failure: non-convergence, overflow, lost bracket."""


class ConvergenceError(NumericError):
    """An iteration hit its step limit before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ToleranceError(NumericError):
    """A root bracket could not be established (defensive; should not occur)."""


class OverflowGuardError(NumericError):
    """A computed value left the double-precision range."""
