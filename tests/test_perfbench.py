"""The benchmark tracer still finds every function it traces, and a
traced spec computes the bits of the untraced one."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from nlsground import builtin, functional, make_grid
from nlsground.expressions import compile_expression
from nlsground.nonlinearity import from_callables

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name():
    # the package re-exports a function named sweep over its sweep module
    optimizer = importlib.import_module("nlsground.optimizer")
    sweep = importlib.import_module("nlsground.sweep")
    original = optimizer.minimize
    tracer = load("tracer").Tracer()
    try:
        # raises when a traced function or method lost its binding
        tracer.install()
        assert optimizer.minimize is not original
    finally:
        tracer.uninstall()
    assert optimizer.minimize is original
    assert sweep.minimize is original


def fiber_layer(u, nl):
    """The bits of the brackets, the projection and the reduced gradient."""
    out = []
    for s in (-8.0, -1.0, 0.0, 1.0, 8.0):
        F_integrals = {}
        out += [functional._fiber_bracket(u, nl, s, F_integrals=F_integrals), F_integrals[s]]
    fiber = functional.project(u, nl)
    out += [fiber.s_star, fiber.value, fiber.residual, *fiber.bracket]
    out += list(functional.reduced_gradient(u, nl, fiber).values)
    return np.array(out).view(np.int64)


def test_traced_spec_measures_the_same_program():
    # wrap_spec replaces f and F by dataclasses.replace and keeps the
    # builtins' fused pair, which the fiber layer calls instead
    child, tracer = load("child"), load("tracer").Tracer()
    gen = np.random.default_rng(0)
    user = from_callables("user", compile_expression(child.USER_F),
                          compile_expression(child.USER_F_PRIMITIVE))
    cases = [(builtin(name, N, **params), N, masses)
             for name, N, params, masses in child.FIBER_CASES]
    cases.append((user, 1, child.FIBER_CASES[0][3]))
    for nl, N, masses in cases:
        traced = tracer.wrap_spec(nl)
        assert traced.fused is nl.fused
        grid = make_grid(N, child.FIBER_RADIUS, 4001)
        for u in child.smooth_profiles(grid, 2, gen, masses):
            assert np.array_equal(fiber_layer(u, traced), fiber_layer(u, nl)), nl.name
