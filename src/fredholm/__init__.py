"""Constrained minimization of quadratic energies with displacement kernels.

Minimizes J_gamma[phi] = (gamma/2) int phi^2 + (1/2) iint G(|t-s|) phi phi
over unit-mass densities on [0, T], equivalently solves the second-kind
equation gamma phi + G * phi = sigma.  Provides a general discretized
solver, exact closed forms (exponential sums, capped-linear, trigonometric
kernels), and finite-difference shape diagnostics.
"""

from .diagnostics import MonotonicityReport, SampledSolution, analyze, compare
from .discrete import (
    DiscreteKernelRow,
    Problem,
    SolutionGrid,
    discretize,
    endpoint_mass,
    gamma_sweep,
    kernel_row,
    solve,
)
from .errors import IllConditionedError, IndefiniteKernelError, LevinsonLimitError
from .exponential import (
    ExpClosedForm,
    build_closed_form,
    cauchy_factors,
    eval_closed_form,
    secular_roots,
    verify_step_identities,
)
from .kernels import (
    CappedLinear,
    ExponentialSum,
    Kernel,
    KernelStructure,
    PowerCapped,
    PowerLaw,
    Tabulated,
    Trigonometric,
    kernel_from_spec,
)
from .special import (
    CappedLinearSolution,
    TrigSolution,
    capped_linear_solve,
    eval_capped_linear,
    eval_trig,
    trig_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Kernel",
    "KernelStructure",
    "ExponentialSum",
    "CappedLinear",
    "PowerCapped",
    "Trigonometric",
    "PowerLaw",
    "Tabulated",
    "kernel_from_spec",
    "Problem",
    "SolutionGrid",
    "DiscreteKernelRow",
    "discretize",
    "kernel_row",
    "solve",
    "gamma_sweep",
    "endpoint_mass",
    "ExpClosedForm",
    "secular_roots",
    "cauchy_factors",
    "build_closed_form",
    "eval_closed_form",
    "verify_step_identities",
    "CappedLinearSolution",
    "TrigSolution",
    "capped_linear_solve",
    "eval_capped_linear",
    "trig_solve",
    "eval_trig",
    "MonotonicityReport",
    "SampledSolution",
    "analyze",
    "compare",
    "IndefiniteKernelError",
    "IllConditionedError",
    "LevinsonLimitError",
    "__version__",
]
