"""Exception types shared across the solver modules; each sets ``detail``, the JSON dict the CLI prints."""


class FieldError(ValueError):
    """A JSON object lacks a required field or holds an unknown one; ``detail`` lists them."""

    def __init__(self, message: str, fields: list):
        self.detail = {"fields": fields}
        super().__init__(message)


class IndefiniteKernelError(RuntimeError):
    """The discretized energy matrix is not positive definite.

    Raised when a Levinson-Durbin prediction error of the Toeplitz quadratic
    form is not positive: the kernel is not of positive type at the requested
    resolution.  ``pivot`` is the 1-based order of the first leading minor
    that is not positive definite, as a Cholesky factorization reports it.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        self.detail = {"pivot": pivot}
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
        self.detail = {"condition": condition}
        super().__init__(f"{message} (condition estimate {condition:.3e})")


class LevinsonLimitError(RuntimeError):
    """A row left to the O(m^2) Levinson-Durbin solve has too many cells.

    Raised before the recursion starts, so that a run that would take hours
    ends at once.  ``cells`` is the grid size, ``limit`` the largest size the
    recursion takes, and ``cause`` says why no certified iteration solved the
    row.
    """

    def __init__(self, cells: int, limit: int, cause: str):
        self.cells = cells
        self.limit = limit
        self.cause = cause
        self.detail = {"cells": cells, "limit": limit, "cause": cause}
        super().__init__(
            f"Levinson-Durbin solve refused at {cells} cells, above {limit}: {cause}"
        )
