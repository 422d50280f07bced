"""Exception types shared across the solver modules."""


class IndefiniteKernelError(RuntimeError):
    """The discretized energy matrix is not positive definite.

    Raised when a Levinson-Durbin prediction error of the Toeplitz quadratic
    form is not positive: the kernel is not of positive type at the requested
    resolution.  ``pivot`` is the 1-based order of the first leading minor
    that is not positive definite, as a Cholesky factorization reports it.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            "kernel not of positive type at this resolution "
            f"(leading minor {pivot} not positive definite)"
        )


class IllConditionedError(RuntimeError):
    """A closed-form linear system is numerically too ill-conditioned to trust.

    ``condition`` carries the condition-number estimate that triggered the
    failure.
    """

    def __init__(self, message: str, condition: float):
        self.condition = condition
        super().__init__(f"{message} (condition estimate {condition:.3e})")
