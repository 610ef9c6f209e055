"""Spans around calls into the package's layers, recorded from outside.

While installed, the tracer replaces each public function listed in LAYERS
by a wrapper, in every ``trapdoor`` module namespace that refers to it (and
on the class, for methods), so calls the package makes between its own
modules are spanned as well as the benchmark's calls.  A span records its
layer metric name, start, end, parent span and operation id.  Spans stay in
memory and are written out when the run ends; uninstalling restores the
original functions, so untraced passes run the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer metric, optional (count metric, count of the result))
LAYERS = [
    ("channel", "build_channel_matrix", "channel.build_s", None),
    ("channel", "channel_pair", "channel.build_s", None),
    ("channel", "invert_channel_matrix", "channel.invert_s", None),
    ("channel", "invert_two_step", "channel.invert_two_step_s", None),
    ("matrices", "DyadicMatrix.product_equals", "matrices.identity_check_s", None),
    ("matrices", "DyadicMatrix.matmul", "matrices.matmul_s", None),
    ("matrices", "DyadicMatrix.matvec", "matrices.matvec_s", None),
    ("bounds", "entropy_vector_direct", "bounds.entropy_s", None),
    ("bounds", "entropy_vector_recursive_step", "bounds.entropy_s", None),
    ("bounds", "entropy_vector_recursive_even", "bounds.entropy_s", None),
    ("bounds", "entropy_state1", "bounds.entropy_s", None),
    ("bounds", "omega_direct", "bounds.omega_s", None),
    ("bounds", "omega_recursive", "bounds.omega_s", None),
    ("bounds", "omega_state1", "bounds.omega_s", None),
    ("bounds", "d_vector", "bounds.d_vector_s", None),
    ("bounds", "upper_bound", "bounds.upper_bound_s", None),
    ("bounds", "constraint_check", "bounds.constraint_check_s", None),
    ("optimize", "blahut_arimoto", "optimize.ba_s",
     ("optimize.ba_iterations", lambda r: r.iterations)),
    ("optimize", "mutual_information", "optimize.mi_s", None),
    ("optimize", "mutual_information_exact", "optimize.mi_s", None),
    ("enumeration", "generate_outputs", "enumeration.generate_s",
     ("enumeration.outputs", lambda r: len(r.outputs))),
    ("enumeration", "feasibility", "enumeration.feasibility_s", None),
    ("fractal", "ifs_iterate", "fractal.ifs_iterate_s", ("fractal.cells", lambda g: g.side**2)),
    ("fractal", "render_pgm", "fractal.render_s", None),
    ("fractal", "rho_representation", "fractal.rho_s", None),
    ("fractal", "tau_transform", "fractal.tau_s", None),
    ("serialization", "write_matrix_csv", "serialization.csv_write_s", None),
    ("serialization", "matrix_csv_text", "serialization.csv_write_s",
     ("serialization.bytes_out", len)),
    ("serialization", "read_matrix_csv", "serialization.csv_read_s", None),
    ("serialization", "write_png", "serialization.png_s", None),
    ("serialization", "png_bytes", "serialization.png_s", ("serialization.bytes_out", len)),
    ("verify", "run_checks", "verify.run_checks_s", None),
    ("cli", "main", "cli.main_s", None),
]

SPAN_METRICS = sorted({metric for _, _, metric, _ in LAYERS})
COUNT_METRICS = sorted({count[0] for *_, count in LAYERS if count})
UNITS = {
    "optimize.ba_iterations": "count", "enumeration.outputs": "count", "fractal.cells": "count",
    "trace.spans": "count", "serialization.bytes_out": "bytes", "optimize.ba_ms_per_iter": "ms",
    "enumeration.outputs_per_s": "1/s", "trace.coverage": "ratio",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric; every other one is a time in seconds."""
    return UNITS.get(metric, "s")


class Tracer:
    """Records nested spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._ids = itertools.count(1)
        self._stack = [0]  # span id 0 is "no parent"
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric: str, count):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, self.op_id, metric, start, end))
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "trapdoor" or name.startswith("trapdoor.")]
        for module_name, attr, metric, count in LAYERS:
            owner = importlib.import_module(f"trapdoor.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, metric, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per-metric self time (span minus its children) of spans[first:]."""
        spans = self.spans[first:]
        children: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            children[parent] += end - start
        out = {metric: 0.0 for metric in SPAN_METRICS}
        for span_id, _, _, metric, start, end in spans:
            out[metric] += (end - start) - children[span_id]
        return out

    def write(self, path, ops: list[tuple[int, int, str]]) -> None:
        """Spans and the operation table (id, pass, name) as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "ops": [{"id": i, "pass": p, "name": name} for i, p, name in ops],
                    "spans": [
                        {"id": s, "parent": par, "op": op, "name": name,
                         "start": start, "end": end}
                        for s, par, op, name, start, end in self.spans
                    ],
                },
                fh,
            )
