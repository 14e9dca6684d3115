"""Spans around calls into the program's public functions.

The tracer replaces each traced function in every ``cutmetrics`` module
namespace that binds it, so calls made inside the package (``measures``
and ``distances`` bind ``laplacian`` and ``cutpoint_table`` by name) are
recorded as well as the benchmark's own.  Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "graph": ("parse_graph", "adjacency_matrix", "laplacian", "cutpoint_table", "shortest_path_lengths"),
    "linalg": ("invert", "determinant", "spectral_data", "symmetric_pseudoinverse"),
    "measures": (
        "forest_matrix",
        "walk_matrix",
        "path_accessibility",
        "connection_reliability",
        "validate_transitional_measure",
        "find_tau_threshold",
    ),
    "distances": (
        "log_distance",
        "forest_distance",
        "walk_distance",
        "resistance_distance",
        "long_walk_distance",
        "path_distance",
        "reliability_distance",
        "check_metric_axioms",
        "check_cutpoint_additivity",
    ),
    "cli": ("main",),
}
TRACED_NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


class Tracer:
    """Span recorder.  ``op`` tags new spans with the operation they belong
    to (``None`` during set-up); ``calls`` and ``self_s`` total each traced
    function per phase (``"setup"`` or ``"run"``); ``invert_flops`` totals
    the nominal 2n^3 flops of the ``linalg.invert`` calls in the run."""

    def __init__(self):
        self.op: int | None = None
        self.spans: list[tuple] = []
        self.calls: dict[tuple[str, str], int] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.invert_flops = 0.0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                key = ("setup" if self.op is None else "run", name)
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + (end - start - frame[1])
                if name == "linalg.invert" and self.op is not None:
                    matrix = args[0] if args else next(iter(kwargs.values()))
                    self.invert_flops += 2.0 * len(matrix) ** 3
                self.spans.append((span_id, parent, self.op, name, start, end))

        return traced

    def install(self, package):
        """Replace every binding of each traced function in the modules of
        ``package`` (the package namespace included)."""
        prefix = package + "."
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(prefix)]
        for name in TRACED_NAMES:
            module, fn = name.split(".")
            original = getattr(sys.modules[prefix + module], fn)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")
