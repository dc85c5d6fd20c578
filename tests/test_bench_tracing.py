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


def test_tracer_counts_the_walk_ring_steps():
    # The zero-automaton walk multiplies by beta through
    # algebraic.bint_mul_beta by name, so a traced round sees one call per
    # state it expands, at least one per state kept.
    import measure_lab.cli  # noqa: F401  every traced module is loaded
    from measure_lab import zero_automaton
    from measure_lab.algebraic import make_pisot

    p = make_pisot([-1, 0, 0, -1, 1])
    tracer = bench_tracing().Tracer()
    tracer.install()
    try:
        a = zero_automaton.build_zero_automaton(p, [-1, 0, 1])
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["algebraic.bint_mul_beta.calls"] >= a.n_states > 1000
