"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or a traced benchmark run fails at install."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, qualname, _timed in tracing.TARGETS:
        module = importlib.import_module(f"measure_lab.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname, None)), f"{module_name}.{qualname}"
