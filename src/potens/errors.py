"""The numerical exception type.

The CLI maps errors onto exit codes: configuration problems (ValueError)
exit with 2, numerical non-convergence (ConvergenceError) with 3.
"""


class ConvergenceError(RuntimeError):
    """A numerical result failed to stabilize or missed its accuracy contract.

    Attributes carry the evidence: ``last`` holds the rejected root of the
    exterior-map inversion and ``estimates`` the rejected values (the gap
    matrix's eigenvalues above 1).
    """

    def __init__(self, message, last=None, estimates=None):
        super().__init__(message)
        self.last = last
        self.estimates = estimates

