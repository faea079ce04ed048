"""Exception hierarchy shared by all symrd modules.

The split mirrors how failures are reported at the command line: bad input
(validation, out-of-domain arguments) exits with status 2, while numerical
trouble (an optimum whose KKT certificate fails its tolerance, requests
finer than float64 can resolve) exits with status 3.
"""


class SymrdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SymrdError):
    """A model parameterization or input file violates its invariants."""


class DomainError(SymrdError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(SymrdError):
    """A solved optimum failed its certificate's tolerance.

    Raised by oracle.solutions when a KKT residual exceeds
    CERTIFICATE_TOL; ``best`` carries the (point, value, certificate)
    that failed.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class PrecisionError(SymrdError):
    """The request is finer than the floating-point format can resolve."""
