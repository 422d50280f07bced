"""Constrained minimization of quadratic energies with displacement kernels.

Minimizes J_gamma[phi] = (gamma/2) int phi^2 + (1/2) iint G(|t-s|) phi phi
over unit-mass densities on [0, T], equivalently solves the second-kind
equation gamma phi + G * phi = sigma.  Provides a general discretized
solver, exact closed forms (exponential sums, capped-linear, trigonometric
kernels), and finite-difference shape diagnostics.

Each public name, and each submodule, is imported the first time it is
used (PEP 562), so a process loads only the submodules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule: the public names it defines
    "kernels": ("Kernel", "KernelStructure", "ExponentialSum", "CappedLinear", "PowerCapped",
                "Trigonometric", "PowerLaw", "Tabulated", "kernel_from_spec"),
    "discrete": ("Problem", "SolutionGrid", "DiscreteKernelRow", "discretize", "kernel_row",
                 "solve", "gamma_sweep", "endpoint_mass"),
    "exponential": ("ExpClosedForm", "secular_roots", "cauchy_factors", "build_closed_form",
                    "eval_closed_form", "verify_step_identities"),
    "special": ("CappedLinearSolution", "TrigSolution", "capped_linear_solve",
                "eval_capped_linear", "trig_solve", "eval_trig"),
    "diagnostics": ("MonotonicityReport", "SampledSolution", "analyze", "compare"),
    "errors": ("IndefiniteKernelError", "IllConditionedError", "LevinsonLimitError", "FieldError"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_quad", "cli"}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # the import binds it in globals()
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
