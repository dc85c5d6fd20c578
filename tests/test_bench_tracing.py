"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or a traced benchmark run fails at install."""

import importlib

from helpers import bench_tracing


def test_trace_targets_resolve():
    for module_name, qualname, _timed in bench_tracing().TARGETS:
        module = importlib.import_module(f"measure_lab.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname, None)), f"{module_name}.{qualname}"
