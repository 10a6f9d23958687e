"""In-memory span tracer that instruments drivendelta from the outside.

Spans are recorded around calls into each module's public functions by
replacing those functions, for the duration of a traced run, with wrappers.
Nothing under ``src/`` is edited: :func:`instrument` rebinds every module
attribute that refers to a wrapped function (``from .x import f`` copies
included) and :meth:`Tracer.restore` puts the originals back.

A span is ``(run, name, start, end, parent)``; ``run`` is the repetition it
belongs to and ``parent`` the index of the enclosing span, or -1.  A
layer's self time is its spans' durations minus the part covered by child
spans, so the self times of one repetition add up to its root span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack = []
        self._patches = []

    def add(self, counts):
        for key, value in counts.items():
            self.counts[self.run][key] += value

    def span(self, name, fn, count=None):
        """Wrap ``fn``: one span per call, plus ``count(result, args)``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.run, name, start, end, parent)
            self.add({name + ".calls": 1})
            if count is not None:
                self.add(count(result, args))
            return result
        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` with a counter only, for calls too many to span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(count(result, args))
            return result
        return wrapper

    def patch(self, module, attr, wrap):
        """Replace ``module.attr`` and every drivendelta alias of it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in [m for n, m in sys.modules.items()
                    if n == "drivendelta" or n.startswith("drivendelta.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def self_times(self, run):
        """Self time per span name for one repetition."""
        totals = defaultdict(float)
        for span_run, name, start, end, parent in self.spans:
            if span_run != run:
                continue
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][1]] -= end - start
        return dict(totals)

    def write(self, path):
        """Spans as CSV: run, index, parent, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("run,index,parent,name,start_s,end_s\n")
            for index, (run, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run},{index},{parent},{name},{start:.9f},{end:.9f}\n")


def _pairs(n):
    # the march evaluates the kernel against j history nodes at step j
    return n * (n + 1) // 2


def instrument(tracer):
    """Wrap the public functions that mark drivendelta's layer boundaries.

    Returns the wrapped ``cli.main``, the root span of one repetition.
    """
    from drivendelta import analysis, cli, model, oracle, semiclassical

    tracer.patch(oracle, "solve_boundary_function", lambda f: tracer.span(
        "oracle.solve", f, lambda grid, args: {
            "oracle.solve.steps": grid.n_steps,
            "oracle.solve.pairs": _pairs(grid.n_steps)}))
    tracer.patch(oracle, "survival_probability",
                 lambda f: tracer.span("oracle.project", f))
    for name in ("ionization_rate", "rate_between_cycles"):
        tracer.patch(semiclassical, name,
                     lambda f: tracer.span("semiclassical.rate", f))
    tracer.patch(semiclassical, "survival_amplitude", lambda f: tracer.counter(
        f, lambda amp, args: {"semiclassical.packet_terms": len(amp.packet_terms)}))
    tracer.patch(analysis, "wkb_background",
                 lambda f: tracer.span("adiabatic.background", f))
    tracer.patch(analysis, "scan_rate", lambda f: tracer.span(
        "analysis.scan", f, lambda scan, args: {
            "analysis.samples": int(scan.z_values.size),
            "analysis.missing": len(scan.missing_indices),
            "analysis.peaks": int(scan.peaks.size)}))
    tracer.patch(analysis, "savitzky_golay",
                 lambda f: tracer.span("analysis.smooth", f))
    for name in ("write_scan_csv", "write_scan_json"):
        tracer.patch(analysis, name, lambda f: tracer.span(
            "cli.emit", f,
            lambda _, args: {"cli.emit.bytes": os.path.getsize(args[1])}))
    tracer.patch(model, "from_dimensionless", lambda f: tracer.counter(
        f, lambda params, args: {"model.params.calls": 1}))
    return tracer.span("cli.main", cli.main)
