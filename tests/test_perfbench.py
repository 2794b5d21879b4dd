"""The benchmark tracer still finds every function it traces."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    # the package re-exports a function named sweep over its sweep module
    optimizer = importlib.import_module("nlsground.optimizer")
    sweep = importlib.import_module("nlsground.sweep")
    original = optimizer.minimize
    tracer = load_tracer().Tracer()
    try:
        # raises when a traced function or method lost its binding
        tracer.install()
        assert optimizer.minimize is not original
    finally:
        tracer.uninstall()
    assert optimizer.minimize is original
    assert sweep.minimize is original
