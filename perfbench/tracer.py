"""Layer tracer that times calls into stackmf from outside the package.

stackmf modules bind each other's functions by name at import
(``from .meanfield import solve_conditional_law``), so patching the
defining module alone would miss most callers.  ``Tracer.install`` finds
every binding of a target function in every loaded ``stackmf`` module and
replaces it with a timing wrapper; ``Tracer.restore`` puts the original
objects back.  Spans are kept in memory as
``(label, start, end, parent)`` tuples, where ``parent`` is the index of
the enclosing span or -1, and written out once with ``write``.
"""
import functools
import json
import sys
import time

# (defining module, function name, label); the label names the layer as
# reported by the benchmark
TARGETS = (
    ("stackmf._rng", "generator", "rng.generator"),
    ("stackmf.dynamics", "simulate_nplayer", "dynamics.simulate_nplayer"),
    ("stackmf.dynamics", "sample_delays", "dynamics.sample_delays"),
    ("stackmf.dynamics", "evaluate_costs_nplayer",
     "dynamics.evaluate_costs_nplayer"),
    ("stackmf.meanfield", "solve_conditional_law",
     "meanfield.solve_conditional_law"),
    ("stackmf.meanfield", "simulate_limit_pair", "meanfield.simulate_limit_pair"),
    ("stackmf.meanfield", "evaluate_costs_limit",
     "meanfield.evaluate_costs_limit"),
    ("stackmf.measures", "w2_exact_1d", "measures.w2_exact_1d"),
    ("stackmf.measures", "w2_exact_lp", "measures.w2_exact_lp"),
    ("stackmf.measures", "w2sq_uniform_samples",
     "measures.w2sq_uniform_samples"),
    ("stackmf.measures", "empirical_rate_curve",
     "measures.empirical_rate_curve"),
    ("stackmf.rates", "state_gap_experiment", "rates.state_gap_experiment"),
    ("stackmf.rates", "cost_gap_experiment", "rates.cost_gap_experiment"),
    ("stackmf.rates", "eta_orthogonality_check",
     "rates.eta_orthogonality_check"),
    ("stackmf.cli", "validate_config", "cli.validate_config"),
    ("stackmf.cli", "build_objects", "cli.build_objects"),
    ("stackmf.cli", "run_experiment", "cli.run_experiment"),
)
PICARD = "meanfield.solve_conditional_law"


class Tracer:
    """Wraps TARGETS in the loaded stackmf modules; one span per call.

    Parent links follow a single call stack, so trace a serial run
    (``threads=1``).  ``counters`` holds the Picard iteration total and the
    number of unconverged solves, read from each returned FixedPointReport.
    """

    def __init__(self):
        self.spans = []
        self.counters = {"picard_iterations": 0, "picard_unconverged": 0}
        self._stack = []
        self._patched = []      # (module, attribute, original object)

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()
            if label == PICARD:
                report = result[1]
                self.counters["picard_iterations"] += report.iterations
                self.counters["picard_unconverged"] += not report.converged
            return result

        return traced

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "stackmf"
                                         or name.startswith("stackmf."))]
        for module_name, attr, label in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def restore(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans, since=float("-inf")):
    """label -> (calls, self seconds) over spans that start at or after
    ``since``; a span's self time is its duration minus its children's."""
    child = [0.0] * len(spans)
    for label, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (label, start, end, _), inner in zip(spans, child):
        if start < since:
            continue
        calls, total = out.get(label, (0, 0.0))
        out[label] = (calls + 1, total + (end - start) - inner)
    return out
