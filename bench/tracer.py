"""Per-layer tracing by replacing module-level functions with timing wrappers.

Each pipeline looks its collaborators up by name in its own module (for
example ``entwitness.scenario`` calls ``propagate`` through its module
globals), so a layer is traced by replacing that name, at every lookup site,
with a wrapper that records a span ``(layer, start, end, parent)``.  A
layer's self time is its spans' duration minus the part covered by child
spans.  A site that no longer exists is skipped, and its layer then reports
zero calls.
"""

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

# layer -> the (module, attribute) sites through which the pipelines call it
SPANS = {
    "cli.main": (),  # entered explicitly by the traced command-line shim
    "scenario.run_scenario": (("entwitness.scenario", "run_scenario"),
                              ("entwitness.cli", "run_scenario")),
    "scenario.sweep": (("entwitness.scenario", "sweep"), ("entwitness.cli", "sweep")),
    "scenario.parse_config": (("entwitness.scenario", "parse_config"),
                              ("entwitness.cli", "parse_config")),
    "scenario.emit_csv": (("entwitness.scenario", "emit_csv"), ("entwitness.cli", "emit_csv")),
    "scenario.write_sweep_csv": (("entwitness.scenario", "write_sweep_csv"),
                                 ("entwitness.cli", "write_sweep_csv")),
    "dynamics.propagate": (("entwitness.scenario", "propagate"),),
    "dynamics.correlation_f": (("entwitness.scenario", "correlation_f"),),
    "dynamics.correlation_f_quadrature": (("entwitness.dynamics", "correlation_f_quadrature"),),
    "information.uncertainty_record": (("entwitness.scenario", "uncertainty_record"),),
    "linalg.matrix_entropy": (("entwitness.information", "matrix_entropy"),),
    "witness.concurrence": (("entwitness.scenario", "concurrence"),),
    "witness.witness_report": (("entwitness.scenario", "witness_report"),),
    "witness.entanglement_death_time": (("entwitness.witness", "entanglement_death_time"),),
}

# Counted but not timed: a span per RK4 step would move the step's cost out
# of the propagator's self time, which is the figure the step count divides.
COUNTS = {
    "linalg.rk4_step": (("entwitness.dynamics", "rk4_step"),),
}


def _propagate_steps(args):
    t_max, dt = args.get("t_max"), args.get("dt")
    return int(round(t_max / dt)) if t_max and dt else 0


def _emitted_bytes(args):
    path = str(args.get("path", ""))
    return sum(os.path.getsize(p) for p in (path, path + ".report") if os.path.isfile(p))


# layer -> (name of the extra count, function of the call's bound arguments)
EXTRAS = {
    "dynamics.propagate": ("steps", _propagate_steps),
    "scenario.emit_csv": ("bytes", _emitted_bytes),
}


def _sites(table):
    for layer, sites in table.items():
        for module_name, attr in sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if callable(original):
                yield layer, module, attr, original


class Tracer:
    """Spans and counts of the traced layers, folded into per-layer totals."""

    def __init__(self):
        self.spans = []   # (layer, start, end, parent index or -1)
        self._stack = []
        self._installed = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.extra = Counter()

    def _span(self, layer, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(layer)
        signature = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
                if extra:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.extra[f"{layer}.{extra[0]}"] += extra[1](bound.arguments)
        return wrapper

    def _counted(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Replace every lookup site by its wrapper."""
        # Resolve every site before replacing any, so that a module imported
        # on the way does not bind a name that is already wrapped.
        sites = [(make, site) for table, make in ((SPANS, self._span), (COUNTS, self._counted))
                 for site in _sites(table)]
        for make, (layer, module, attr, original) in sites:
            setattr(module, attr, make(layer, original))
            self._installed.append((module, attr, original))

    def remove(self):
        """Restore the original functions."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def call(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        return self._span(layer, fn)(*args, **kwargs)

    def fold(self):
        """Move the recorded spans into the per-layer self times and call counts."""
        for layer, start, end, parent in self.spans:
            duration = end - start
            self.self_s[layer] += duration
            self.calls[layer] += 1
            if parent >= 0:
                self.self_s[self.spans[parent][0]] -= duration
        self.spans.clear()

    def totals(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "extra": dict(self.extra)}

    def merge(self, totals):
        """Add totals folded in another process."""
        for layer, value in totals["self_s"].items():
            self.self_s[layer] += value
        self.calls.update(totals["calls"])
        self.extra.update(totals["extra"])

    def metrics(self, rounds):
        """Per-layer metrics, each the mean over ``rounds`` traced rounds."""
        out = {}
        for layer in SPANS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s")
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
        for layer in COUNTS:
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
        for layer, (name, _) in EXTRAS.items():
            out[f"{layer}.{name}"] = (self.extra[f"{layer}.{name}"] / rounds,
                                      "bytes" if name == "bytes" else "count")

        def per(layer, divisor, scale):
            return self.self_s[layer] / divisor * scale if divisor else 0.0

        steps = self.extra["dynamics.propagate.steps"]
        out["dynamics.propagate.us_per_step"] = (
            per("dynamics.propagate", steps, 1e6), "us")
        for layer in ("information.uncertainty_record", "witness.concurrence"):
            out[f"{layer}.us_per_call"] = (per(layer, self.calls[layer], 1e6), "us")
        layer = "dynamics.correlation_f_quadrature"
        out[f"{layer}.ms_per_call"] = (per(layer, self.calls[layer], 1e3), "ms")
        return out
