"""The benchmark's tracer wraps package functions by name, and its runner
reads the path-weight cache's hooks; a rename must fail here rather than
in ``bench/run.py``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{fn}"
        for module, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"cutmetrics.{module}"), fn, None))
    ]
    assert tracing.TRACED_NAMES and not missing, missing


def test_path_weight_cache_hooks_resolve():
    # bench/run.py reads these through getattr(..., None): a rename would
    # report a 0 hit ratio and skip the per-run cache reset without failing.
    cached = importlib.import_module("cutmetrics.measures")._path_length_weights
    assert callable(getattr(cached, "cache_info", None)) and callable(getattr(cached, "cache_clear", None))
