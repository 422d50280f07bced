"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions of ``fredholm`` at the attributes
through which callers reach them (module globals, class attributes, and the
``panel_gauss`` names that ``special``, ``exponential`` and ``cli`` import
from ``_quad``) and puts the originals back on exit.  Spans stay in memory;
``take()`` turns the spans of one operation into per-name call counts and
self times, where a span's self time is its duration minus the time covered
by its direct child spans.  Hot leaf functions are counted without a span,
so their time stays with the caller.
"""

import time
from collections import Counter, defaultdict


def targets(fredholm):
    """(owner, attribute, metric name, spanned?) for every wrapped function."""
    kernels, discrete, exponential = fredholm.kernels, fredholm.discrete, fredholm.exponential
    special, diagnostics, cli, quad = fredholm.special, fredholm.diagnostics, fredholm.cli, fredholm._quad
    out = []
    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
            for attr in ("cell_double_integral", "cell_integral", "evaluate"):
                if attr in vars(cls):
                    out.append((cls, attr, f"kernels.{attr}", attr != "evaluate"))
    out += [
        (discrete, "solve", "discrete.solve", True),
        (discrete, "discretize", "discrete.discretize", True),
        (exponential, "build_closed_form", "exponential.build_closed_form", True),
        (exponential, "quadrature_energy", "exponential.quadrature_energy", True),
        (exponential, "fredholm_residual_max", "exponential.fredholm_residual_max", True),
        (exponential, "verify_step_identities", "exponential.verify_step_identities", True),
        (special, "capped_linear_solve", "special.capped_linear_solve", True),
        (special, "capped_linear_energy", "special.capped_linear_energy", True),
        (special, "capped_linear_residual_max", "special.capped_linear_residual_max", True),
        (special, "eval_capped_linear", "special.eval_capped_linear", False),
        (diagnostics, "analyze", "diagnostics.analyze", True),
        (diagnostics, "compare", "diagnostics.compare", True),
        (cli, "parse_config", "cli.parse_config", True),
        (cli, "run", "cli.run", True),
    ]
    out += [(special, f, "special.trig", True)
            for f in ("trig_solve", "eval_trig", "trig_residual_max", "trig_energy")]
    out += [(mod, "panel_gauss", "quad.panel_gauss", True)
            for mod in (quad, special, exponential, cli)]
    return out


class SpanRecorder:
    """Context manager that wraps the targets and records spans while active."""

    def __init__(self, fredholm):
        self._targets = targets(fredholm)
        self._saved = []
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []

    def __enter__(self):
        for owner, attr, name, spanned in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            wrapper = self._span(original, name) if spanned else self._count(original, name)
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        cells = name == "discrete.solve"

        def wrapper(*args, **kwargs):
            if cells:  # solve(problem, m): the grid size is the work done
                counts["discrete.cells"] += args[1] if len(args) > 1 else kwargs["m"]
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self):
        """Metrics of the spans and counts since the last take():
        ``<name>.calls``, ``<name>.self_s`` and the plain counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float, self.counts)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.self_s"] += (end - start) - inner
            out[f"{name}.calls"] += 1
        self.spans.clear()
        self.counts.clear()
        return dict(out)
