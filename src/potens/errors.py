"""Shared exception types.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical non-convergence with 3.
"""


class ConvergenceError(RuntimeError):
    """A numerical result failed to stabilize or missed its accuracy contract.

    Attributes carry the evidence: ``last`` holds the rejected root of the
    exterior-map inversion and ``estimates`` the rejected values (the
    interior Gram matrix that lost Hermitian symmetry).
    """

    def __init__(self, message, last=None, estimates=None):
        super().__init__(message)
        self.last = last
        self.estimates = estimates


class NotCoveredError(ValueError):
    """Requested a prediction outside the range of the implemented error models."""
