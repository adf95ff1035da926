"""Span recording around the package's public functions.

Spans are recorded from outside the program: while a :class:`Tracer` is
installed, each module attribute a caller looks up (``statnn.simgen.fit``,
``statnn.cli.summarize`` and so on) is replaced by a wrapper that notes
the span's name, parent, start and end, then restored when the tracer is
removed; a span's request is its root span.  ``statnn.fit`` is reached
through ``sys.modules`` because the package rebinds that attribute to
the function.

A layer's self time is its spans' total duration less the time covered
by their direct child spans; calls into one layer from another nest, so
the children of a span never overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: (module, attribute, layer name).  Every binding a caller uses is
#: listed, so a layer is timed whichever module calls it.
BINDINGS = (
    ("statnn.cli", "main", "cli.main"),
    ("statnn.simgen", "run_scenario", "simgen.run_scenario"),
    ("statnn.simgen", "generate", "simgen.generate"),
    ("statnn.simgen", "fit", "fit.fit"),
    ("statnn.selection", "fit", "fit.fit"),
    ("statnn.cli", "fit", "fit.fit"),
    ("statnn.cli", "evaluate_at", "fit.evaluate_at"),
    ("statnn.fit", "canonicalize", "canonical.canonicalize"),
    ("statnn.simgen", "align_to", "canonical.align_to"),
    ("statnn.simgen", "observed_information",
     "likelihood.observed_information"),
    ("statnn.cli", "observed_information", "likelihood.observed_information"),
    ("statnn.effects", "prediction_gradient",
     "likelihood.prediction_gradient"),
    ("statnn.simgen", "sandwich_covariance", "inference.sandwich_covariance"),
    ("statnn.cli", "sandwich_covariance", "inference.sandwich_covariance"),
    ("statnn.simgen", "wald_multi", "inference.wald_multi"),
    ("statnn.inference", "wald_multi", "inference.wald_multi"),
    ("statnn.cli", "summarize", "inference.summarize"),
    ("statnn.cli", "pce_curve", "effects.pce_curve"),
    ("statnn.cli", "sweep", "selection.sweep"),
    ("statnn.selection", "cross_validate", "selection.cross_validate"),
    ("statnn.selection", "fit_linear", "selection.fit_linear"),
    ("statnn.cli", "fit_linear", "selection.fit_linear"),
    ("statnn.cli", "ingest", "preprocess.ingest"),
    ("statnn.cli", "dataset_from_meta", "preprocess.dataset_from_meta"),
    ("statnn.cli", "load_model", "serialize.load_model"),
    ("statnn.cli", "atomic_write_text", "serialize.atomic_write_text"),
    ("statnn.serialize", "atomic_write_text", "serialize.atomic_write_text"),
    ("statnn.cli", "emit_summary", "report.emit_summary"),
    ("statnn.cli", "emit_diagram", "report.emit_diagram"),
    ("statnn.cli", "pce_csv", "report.pce_csv"),
    ("statnn.cli", "pce_plot_svg", "plots.pce_plot_svg"),
)

#: Per-layer metrics: self times, then counts.  (name, unit, better).
SELF_TIMES = (
    "fit.fit", "fit.evaluate_at", "canonical.align_to",
    "canonical.canonicalize", "simgen.generate",
    "likelihood.observed_information", "likelihood.prediction_gradient",
    "inference.sandwich_covariance", "inference.wald_multi",
    "inference.summarize", "effects.pce_curve", "selection.sweep",
    "selection.cross_validate", "selection.fit_linear", "preprocess.ingest",
    "preprocess.dataset_from_meta", "serialize.load_model",
    "serialize.atomic_write_text", "report.emit_summary",
    "report.emit_diagram", "report.pce_csv", "plots.pce_plot_svg",
    "cli.main",
)
COUNTS = (
    ("fit.fit_calls", "count", "lower"),
    ("fit.iterations", "count", "lower"),
    ("fit.restart_agreement", "ratio", "higher"),
    ("likelihood.prediction_gradient_calls", "count", "lower"),
    ("effects.grid_points", "count", "lower"),
    ("preprocess.rows", "count", "lower"),
    ("cli.main_calls", "count", "lower"),
)
OVERHEAD = ("trace.overhead_s", "s", "lower")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(f"{name}_s", "s", "lower") for name in SELF_TIMES]
            + list(COUNTS) + [OVERHEAD])


def _agreeing_restarts(result):
    best = result.loglik
    return sum(1 for ll in result.restart_logliks
               if abs(ll - best) <= 1e-8 * max(1.0, abs(best)))


class Tracer:
    """Spans kept in memory: [name, parent, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.fit_restarts = 0
        self.fit_agreeing = 0
        self.fit_iterations = 0
        self.grid_points = 0
        self.rows = 0

    def _observe(self, layer, result):
        if layer == "fit.fit":
            self.fit_iterations += result.iterations
            self.fit_restarts += len(result.restart_logliks)
            self.fit_agreeing += _agreeing_restarts(result)
        elif layer == "effects.pce_curve":
            curves = result if isinstance(result, tuple) else (result,)
            self.grid_points += sum(len(c.points) for c in curves)
        elif layer == "preprocess.ingest":
            self.rows += result[0].n
        elif layer == "preprocess.dataset_from_meta":
            self.rows += result.n

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self._observe(layer, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer in BINDINGS:
                mod = sys.modules[module]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(layer, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def metrics(self, overhead_s: float) -> dict:
        duration = [end - start for _, _, start, end in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                covered[parent] += duration[i]
        self_time = {name: 0.0 for name in SELF_TIMES}
        calls = {}
        for i, (name, *_rest) in enumerate(self.spans):
            if name in self_time:
                self_time[name] += duration[i] - covered[i]
            calls[name] = calls.get(name, 0) + 1
        counts = {
            "fit.fit_calls": calls.get("fit.fit", 0),
            "fit.iterations": self.fit_iterations,
            "fit.restart_agreement": (self.fit_agreeing / self.fit_restarts
                                      if self.fit_restarts else 0.0),
            "likelihood.prediction_gradient_calls": calls.get(
                "likelihood.prediction_gradient", 0),
            "effects.grid_points": self.grid_points,
            "preprocess.rows": self.rows,
            "cli.main_calls": calls.get("cli.main", 0),
        }
        values = {f"{name}_s": self_time[name] for name in SELF_TIMES}
        values.update(counts)
        values[OVERHEAD[0]] = overhead_s
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in per_layer_metrics()}

    def write(self, path):
        """Dump the spans as JSON; a span's request is its root span."""
        rows = []
        for i, (name, parent, start, end) in enumerate(self.spans):
            request = i if parent is None else rows[parent]["request"]
            rows.append({"id": i, "name": name, "parent": parent,
                         "request": request, "start": start, "end": end})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")
