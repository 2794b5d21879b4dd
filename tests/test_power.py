"""The underflow-skipping power kernel keeps numpy's bits on normal results,
and the fiber layer's shortcuts keep the fiber layer's bits.

nonlinearity.power runs pow only on lanes whose result is a normal
double or can be non-finite.  These tests pin its contract against
numpy (numpy's bits, except +0.0 on the lanes below the smallest double
whose power reaches 2^-1022) on edge values, check that flushing those
lanes moves none of the fiber layer's results against the kernel that
flushed only the lanes rounding to zero, and pin that pow really skips
the tail of a decaying profile.  The builtins' fused (f, F) pairs, the
reduced gradient's reuse of the bracket's f at s*, the bracket's lazy
non-finite repair and its live-prefix cut are checked bit for bit
against the separate or full-array paths.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import GridFunction, builtin, make_grid, sphere_retract
from nlsground import expressions, functional, nonlinearity
from nlsground.expressions import compile_expression
from nlsground.nonlinearity import from_callables, power

from conftest import random_profiles

# critical_piecewise's default p in dimension 5
PIECEWISE_P = 0.5 * (2.0 + 4.0 / 5 + 8.0 / 25 + 10.0 / 3)
# every exponent the builtins use in the tested dimensions, plus 0.5
EXPONENTS = (1.0, 2.0, 0.5, 4.0, 6.0, 8.0, 4.0 / 3, 10.0 / 3, 8.0 / 3, 1.0 / 3,
             PIECEWISE_P, PIECEWISE_P - 2.0)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
         1.0, 1e300, math.inf, -math.inf, math.nan)
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),  # every double, NaN, inf and subnormals included
    st.floats(-690.0, 690.0).map(math.exp),  # 1e-300 ... 1e300
    st.floats(-690.0, 690.0).map(lambda x: -math.exp(x)),
)
# the README user spec
USER_F, USER_F_PRIMITIVE = "abs(t)^6 * t", "abs(t)^8 / 8"


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# exponents whose unmasked power is plain ``a ** p``
FAST_EXPONENTS = (1.0, 2.0)


@functools.lru_cache(maxsize=None)
def floor_of(p):
    """The smallest positive double whose p-th power, by numpy's array
    pow, reaches the smallest normal double: the first such double in a
    window of 4096 ulps either side of 2^(-1022/p), where pow rises
    monotonically.  Below 5e-324 lies only +0.0, whose power is +0.0
    already, so that floor reads 0.0."""
    guess = int(np.float64(2.0 ** (-1022.0 / p)).view(np.int64))
    window = np.arange(max(guess - 4096, 1), guess + 4097).view(np.float64)
    with np.errstate(under="ignore"):
        reach = np.power(window, p) >= np.finfo(float).tiny
    first = int(np.argmax(reach))
    assert reach[first:].all() and (first > 0 or window[0] == 5e-324), p
    return 0.0 if window[first] == 5e-324 else float(window[first])


def expected_power(a, p, exponent=None, where=None):
    """The kernel's contract: numpy's ``np.power(a, exponent)`` on the
    lanes of ``where``, +0.0 on the other lanes and on every lane whose
    sign bit is clear and whose value lies below floor_of(p); an unmasked
    call at p = 1.0 or 2.0 is plain numpy."""
    a = np.asarray(a, dtype=float)
    e = p if exponent is None else exponent
    keep = np.ones(a.shape, dtype=bool) if where is None else np.asarray(where)
    if p > 0 and (where is not None or p not in FAST_EXPONENTS):
        keep = keep & ~(~np.signbit(a) & (a < floor_of(p)))
    with np.errstate(all="ignore"):
        return np.where(keep, a ** e, 0.0)


def with_floor(values, p):
    """values plus the floor, its rounded estimate 2^(-1022/p), the
    earlier floor 2^(-1080/p) (below it the power rounds to zero) and
    their neighbours."""
    near = []
    for floor in (floor_of(p), 2.0 ** (-1022.0 / p), 2.0 ** (-1080.0 / p)):
        near += [np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)]
    return np.array(list(values) + near, dtype=float)


def wide_range(p, n=4001):
    """Both signs over 1e-320 .. 1e300 and around the floor, in long runs
    (numpy's SIMD loops) mixed with short ones."""
    mags = np.geomspace(1e-320, 1e300, n)
    x = np.concatenate([mags, -mags[::-1], with_floor(EDGES, p)])
    return np.concatenate([x, np.random.default_rng(0).permutation(x)])


class TestPowerKernel:
    @given(values=st.lists(VALUES, max_size=48), p=st.sampled_from(EXPONENTS))
    @settings(max_examples=300, deadline=None)
    def test_abs_power_matches_numpy(self, values, p):
        a = np.abs(with_floor(values, p))
        with np.errstate(all="ignore"):
            assert np.array_equal(bits(power(a, p)), bits(expected_power(a, p)))

    @given(values=st.lists(VALUES, max_size=48), p=st.sampled_from(EXPONENTS))
    @settings(max_examples=100, deadline=None)
    def test_signed_lanes_go_through_pow(self, values, p):
        # -0.0, negative, NaN and inf lanes keep numpy's value
        t = with_floor(values, p)
        with np.errstate(all="ignore"):
            got, ref = power(t, p), t ** p
        keep = np.signbit(t) | ~np.isfinite(t)
        assert np.array_equal(bits(got[keep]), bits(ref[keep]))
        assert np.array_equal(bits(got), bits(expected_power(t, p)))

    def test_long_runs_match_numpy(self):
        for p in EXPONENTS:
            a = np.abs(wide_range(p))
            with np.errstate(all="ignore"):
                assert np.array_equal(bits(power(a, p)), bits(expected_power(a, p))), p

    def test_flushed_lanes_are_the_subnormal_results(self):
        # the kernel differs from numpy exactly where numpy's power is a
        # positive subnormal
        tiny = np.finfo(float).tiny
        flushed = 0
        for p in EXPONENTS:
            if p in FAST_EXPONENTS:
                continue
            a = np.abs(wide_range(p))
            with np.errstate(all="ignore"):
                ref, got = a ** p, power(a, p)
            changed = bits(got) != bits(ref)
            assert np.all(ref[changed] < tiny), p
            assert np.all(bits(got[changed]) == 0), p
            subnormal = (ref > 0.0) & (ref < tiny)
            assert np.all(changed[subnormal]), p
            flushed += int(subnormal.sum())
        assert flushed > 0

    def test_masked_lanes_are_zero(self):
        for p in (6.0, 2.0, 1.0):
            a = np.abs(wide_range(p))
            lo = a <= 1.0
            with np.errstate(all="ignore"):
                out = power(a, p, where=lo)
            assert np.array_equal(bits(out), bits(expected_power(a, p, where=lo))), p
            assert np.array_equal(bits(out[~lo]), bits(np.zeros((~lo).sum()))), p

    def test_empty_and_zero_dimensional(self):
        assert power(np.zeros(0), 8.0).shape == (0,)
        below = np.nextafter(floor_of(8.0), 0.0)
        for x in (0.0, -0.0, 1e-300, below, floor_of(8.0), -below, 3.0, math.nan):
            a = np.asarray(x)
            with np.errstate(all="ignore"):
                got = power(a, 8.0)
            assert np.ndim(got) == 0
            assert bits(got) == bits(expected_power(a, 8.0)), x
        assert bits(power(np.asarray(below), 8.0)) == 0
        assert bits(np.asarray(below) ** 8.0) != 0  # numpy's is subnormal


class TestExpressionPower:
    @given(values=st.lists(VALUES, max_size=48),
           p=st.sampled_from(EXPONENTS + (3.0, 5.0, 2.5, 1e-3)))
    @settings(max_examples=300, deadline=None)
    def test_literal_exponent_matches_numpy(self, values, p):
        # negative bases give signed powers (integer p) or NaN (the rest)
        t = with_floor(values, p)
        for text, base in ((f"t^{p!r}", t), (f"abs(t)^{p!r}", np.abs(t))):
            with np.errstate(all="ignore"):
                got = compile_expression(text)(t)
            ref = expected_power(base, p, exponent=np.full_like(t, p))
            assert np.array_equal(bits(got), bits(ref)), text

    def test_negative_bases_keep_numpy(self):
        t = -np.abs(wide_range(8.0))
        for p in EXPONENTS + (3.0, 5.0):
            with np.errstate(all="ignore"):
                got = compile_expression(f"t^{p!r}")(t)
                assert np.array_equal(bits(got), bits(np.power(t, np.full_like(t, p)))), p

    def test_long_runs_match_numpy(self):
        for p in EXPONENTS + (3.0, 5.0):
            t = wide_range(p)
            with np.errstate(all="ignore"):
                got = compile_expression(f"t^{p!r}")(t)
            ref = expected_power(t, p, exponent=np.full_like(t, p))
            assert np.array_equal(bits(got), bits(ref)), p

    def test_computed_exponents_keep_numpy(self):
        t = wide_range(8.0)
        with np.errstate(all="ignore"):
            for text, exponent in (("t^t", t), ("abs(t)^-2", np.full_like(t, -2.0)),
                                   ("abs(t)^(4/3)", np.full_like(t, 4.0) / 3.0)):
                base = t if text == "t^t" else np.abs(t)
                got = compile_expression(text)(t)
                assert np.array_equal(bits(got), bits(np.power(base, exponent))), text


# -- the builtins' f and F as they stood before the kernel, the reference
# for bit identity


def reference_pure_power(p):
    return (lambda t: np.abs(t) ** (p - 2.0) * t,
            lambda t: np.abs(t) ** p / p)


def reference_log_supercritical(N, alpha):
    q = 2.0 + 4.0 / N

    def f(t):
        a = np.abs(t) ** alpha
        return (q * np.log1p(a) + alpha * a / (1.0 + a)) * np.abs(t) ** (4.0 / N) * t

    return f, lambda t: np.abs(t) ** q * np.log1p(np.abs(t) ** alpha)


def reference_critical_piecewise(N, p):
    two_star = 2.0 * N / (N - 2.0)

    def f(t):
        a = np.abs(t)
        return np.where(a <= 1.0, a ** (two_star - 2.0), a ** (p - 2.0)) * t

    def F(t):
        a = np.abs(t)
        inner = a**two_star / two_star
        outer = 1.0 / two_star + (np.where(a > 1.0, a, 1.0) ** p - 1.0) / p
        return np.where(a <= 1.0, inner, outer)

    return f, F


def reference_f6prime_example(N, beta, beta_N):
    two_star = 2.0 * N / (N - 2.0)

    def f(t):
        a = np.abs(t) ** beta_N
        damp = 1.0 - beta_N * (N - 2.0) * a / (2.0 * N * (1.0 + a))
        return beta * damp * np.abs(t) ** (4.0 / (N - 2.0)) * t / (1.0 + a)

    def F(t):
        a = np.abs(t) ** beta_N
        return beta * (N - 2.0) * np.abs(t) ** two_star / (2.0 * N * (1.0 + a))

    return f, F


def reference_user(t):
    """The README spec through the expression grammar's numpy calls."""
    return (np.power(np.abs(t), np.full_like(t, 6.0)) * t,
            np.power(np.abs(t), np.full_like(t, 8.0)) / np.full_like(t, 8.0))


# the benchmark's fiber cases: builtin, dimension, parameters, mass range
FIBER_CASES = (
    ("pure_power", 1, {"p": 8.0}, (0.5, 2.0)),
    ("log_supercritical", 2, {}, (1.5, 4.0)),
    ("critical_piecewise", 5, {}, (0.5, 2.0)),
    ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}, (0.5, 2.0)),
    ("f6prime_example", 3, {}, (0.5, 2.0)),
)


def reference_for(nl):
    p = nl.params
    return {
        "pure_power": lambda: reference_pure_power(p["p"]),
        "log_supercritical": lambda: reference_log_supercritical(p["N"], p["alpha_N"]),
        "critical_piecewise": lambda: reference_critical_piecewise(p["N"], p["p"]),
        "f6prime_example": lambda: reference_f6prime_example(p["N"], p["beta"], p["beta_N"]),
    }[nl.name]()


def fiber_profiles(N, mass_range, count, seed):
    """Smooth bumps on the mass sphere, built like the benchmark's."""
    grid = make_grid(N, 24.0, 24001)
    gen = np.random.default_rng(seed)
    r = grid.nodes
    out = []
    for _ in range(count):
        sigma = gen.uniform(0.9, 1.7)
        base = np.exp(-((r / sigma) ** 2))
        k = int(gen.integers(0, 3))
        if k:
            base = base * (1.0 + 0.25 * gen.uniform(-1, 1)
                           * np.cos(k * math.pi * r / (5.0 * sigma)))
        base[-1] = 0.0
        out.append(sphere_retract(GridFunction(grid, base), gen.uniform(*mass_range)))
    return out


def dilated(values, N):
    """e^{Ns/2} u for s in [-8, 8], and the negated profile."""
    for s in np.linspace(-8.0, 8.0, 9):
        scaled = math.exp(0.5 * N * s) * values
        yield scaled
        yield -scaled


def assert_reference_bits(got, ref, what):
    """got carries ref's bits on every lane where ref is not subnormal,
    and ref's bits or a zero where it is; returns the count of lanes
    that became zero."""
    got, ref = np.asarray(got), np.asarray(ref)
    sub = (ref != 0.0) & (np.abs(ref) < np.finfo(float).tiny)
    assert np.array_equal(bits(got[~sub]), bits(ref[~sub])), what
    zeroed = got[sub] == 0.0
    assert np.all(zeroed | (bits(got[sub]) == bits(ref[sub]))), what
    return int(zeroed.sum())


class TestBuiltinsBitIdentical:
    """The builtins against their plain-numpy formulas: equal bits except
    on subnormal values, which the kernel may flush to zero."""

    def test_builtins_match_reference_formulas(self):
        zeroed = 0
        for k, (name, N, params, masses) in enumerate(FIBER_CASES):
            nl = builtin(name, N, **params)
            ref_f, ref_F = reference_for(nl)
            for u in fiber_profiles(N, masses, 3, seed=k):
                for t in dilated(u.values, N):
                    with np.errstate(all="ignore"):
                        zeroed += assert_reference_bits(nl.f(t), ref_f(t), (name, "f"))
                        zeroed += assert_reference_bits(nl.F(t), ref_F(t), (name, "F"))
        assert zeroed > 0

    def test_user_spec_matches_reference(self):
        nl = from_callables("user", compile_expression(USER_F),
                            compile_expression(USER_F_PRIMITIVE))
        zeroed = 0
        for u in fiber_profiles(1, (0.5, 2.0), 3, seed=9):
            for t in dilated(u.values, 1):
                ref_f, ref_F = reference_user(t)
                zeroed += assert_reference_bits(nl.f(t), ref_f, "f")
                zeroed += assert_reference_bits(nl.F(t), ref_F, "F")
        assert zeroed > 0

    def test_edge_values_match_reference(self):
        t = wide_range(8.0)
        for name, N, params, _ in FIBER_CASES:
            nl = builtin(name, N, **params)
            ref_f, ref_F = reference_for(nl)
            with np.errstate(all="ignore"):
                assert_reference_bits(nl.f(t), ref_f(t), (name, "f"))
                assert_reference_bits(nl.F(t), ref_F(t), (name, "F"))


def earlier_power(a, p, where=None, exponent=None):
    """The kernel with its earlier floor 2^(-1080/p), below which the
    power rounds to +0.0: numpy's bits on every lane, subnormal results
    included."""
    a = np.asarray(a)
    e = p if exponent is None else exponent
    if p > 0 and (where is not None or p not in FAST_EXPONENTS):
        floor = np.float64(2.0 ** (-1080.0 / p)).view(np.uint64)
        bits_ = a.view(np.uint64)
        if where is not None:
            where = where & (bits_ >= floor)
        elif bits_.min(initial=np.iinfo(np.uint64).max) < floor:
            where = bits_ >= floor
    if where is None:
        return a ** e
    out = np.zeros_like(a)
    np.power(a, e, out=out, where=where)
    return out


def user_spec():
    return from_callables("user", compile_expression(USER_F),
                          compile_expression(USER_F_PRIMITIVE))


def fiber_specs(count):
    """(name, spec, profiles) for every fiber case and the user spec."""
    for k, (name, N, params, masses) in enumerate(FIBER_CASES):
        yield name, builtin(name, N, **params), fiber_profiles(N, masses, count, seed=k)
    yield "user", user_spec(), fiber_profiles(1, (0.5, 2.0), count, seed=9)


class TestFiberLayerInvariance:
    """Flushing the subnormal powers moves none of the fiber layer's
    results: the bracket and its F integral over s in [-8, 8], the
    projection and the reduced gradient are bit-equal to those computed
    with the earlier kernel, which kept numpy's subnormal results."""

    S = np.linspace(-8.0, 8.0, 33)

    def fiber_layer(self, nl, profiles):
        out = []
        for u in profiles:
            for s in self.S:
                F_integrals = {}
                out.append(functional._fiber_bracket(u, nl, float(s), F_integrals=F_integrals))
                out.append(F_integrals[float(s)])
            fiber = functional.project(u, nl)
            out += [fiber.s_star, fiber.value, *fiber.bracket]
            out += list(functional.reduced_gradient(u, nl, fiber).values)
        return bits(np.array(out))

    def test_fiber_layer_matches_earlier_kernel(self, monkeypatch):
        for name, nl, profiles in fiber_specs(6):
            got = self.fiber_layer(nl, profiles)
            monkeypatch.setattr(nonlinearity, "power", earlier_power)
            monkeypatch.setattr(expressions, "power", earlier_power)
            ref = self.fiber_layer(nl, profiles)
            monkeypatch.undo()
            assert np.array_equal(got, ref), name

    def test_earlier_kernel_keeps_subnormals(self, monkeypatch):
        # the reference differs from the kernel on these profiles, so the
        # invariance above is not vacuous
        nl = builtin("pure_power", 1, p=8.0)
        t = math.exp(-4.0) * fiber_profiles(1, (0.5, 2.0), 1, seed=0)[0].values
        got = nl.F(t)
        monkeypatch.setattr(nonlinearity, "power", earlier_power)
        ref = nl.F(t)
        assert not np.array_equal(bits(got), bits(ref))


def test_pow_skips_the_underflowing_tail(monkeypatch):
    # a Gaussian on [0, 30] decays through every exponent's floor; every
    # masked np.power call must leave the lanes below its floor alone
    calls = []
    real_power = np.power

    def spy(a, exponent, *args, **kw):
        if kw.get("where") is not None:
            calls.append((np.asarray(a), float(np.max(exponent)), np.asarray(kw["where"])))
        return real_power(a, exponent, *args, **kw)

    u = np.exp(-np.linspace(0.0, 30.0, 3001) ** 2)
    for name, N, params, _ in FIBER_CASES:
        nl = builtin(name, N, **params)
        calls.clear()
        monkeypatch.setattr(np, "power", spy)
        nl.f(u), nl.F(u), nl.f(-u), nl.F(-u)
        monkeypatch.undo()
        assert calls, name
        skipped = 0
        for a, p, where in calls:
            below = a.view(np.uint64) < np.float64(floor_of(p)).view(np.uint64)
            assert not np.any(where & below), (name, p)
            skipped += int(below.sum())
        assert skipped > 0, name


class TestFusedKernels:
    """Each builtin's fused pair is its f and F, bit for bit, on every
    lane: NaN, inf, +-0, subnormal and negative ones included."""

    def assert_fused(self, nl, t, what):
        with np.errstate(all="ignore"):
            fv, Fv = nl.fused(t)
            assert np.array_equal(bits(fv), bits(nl.f(t))), (what, "f")
            assert np.array_equal(bits(Fv), bits(nl.F(t))), (what, "F")

    def test_fused_on_profiles(self):
        for k, (name, N, params, masses) in enumerate(FIBER_CASES):
            nl = builtin(name, N, **params)
            for u in fiber_profiles(N, masses, 3, seed=k):
                for t in dilated(u.values, N):
                    self.assert_fused(nl, t, name)

    def test_fused_on_edge_values(self):
        for name, N, params, _ in FIBER_CASES:
            nl = builtin(name, N, **params)
            for p in EXPONENTS:
                self.assert_fused(nl, wide_range(p), (name, p))
            for x in EDGES:
                self.assert_fused(nl, np.asarray(x), (name, x))

    def test_specs_without_fused_pair_call_f_and_F(self):
        t = wide_range(8.0)
        nl = user_spec()
        assert nl.fused is None
        with np.errstate(all="ignore"):
            fv, Fv = nl.f_and_F(t)
            assert np.array_equal(bits(fv), bits(nl.f(t)))
            assert np.array_equal(bits(Fv), bits(nl.F(t)))


def counting(nl, calls):
    """nl with an f that appends to calls (the fused pair stays)."""
    def f(t):
        calls.append(1)
        return nl.f(t)
    return dataclasses.replace(nl, f=f)


class TestReusedF:
    """reduced_gradient with project's FiberResult gives the bits of the
    gradient that evaluates f itself."""

    def test_reused_f_matches_recomputed(self):
        for name, nl, profiles in fiber_specs(3):
            for u in profiles:
                fiber = functional.project(u, nl)
                assert fiber._f_star is not None, name
                got = functional.reduced_gradient(u, nl, fiber).values
                ref = functional.reduced_gradient(
                    u, nl, dataclasses.replace(fiber, _f_star=None)).values
                assert np.array_equal(bits(got), bits(ref)), name

    def test_builtins_skip_f_after_project(self):
        for name, nl, profiles in fiber_specs(1):
            calls = []
            traced = counting(nl, calls)
            fiber = functional.project(profiles[0], traced)
            calls.clear()
            functional.reduced_gradient(profiles[0], traced, fiber)
            assert not calls, name

    def test_other_profile_or_spec_evaluates_f(self):
        nl = builtin("pure_power", 1, p=8.0)
        u, v = fiber_profiles(1, (0.5, 2.0), 2, seed=3)
        fiber = functional.project(u, nl)
        cleared = dataclasses.replace(fiber, _f_star=None)
        for w, spec in ((v, nl), (GridFunction(u.grid, u.values.copy()), nl), (u, user_spec())):
            got = functional.reduced_gradient(w, spec, fiber).values
            ref = functional.reduced_gradient(w, spec, cleared).values
            assert np.array_equal(bits(got), bits(ref))

    def test_scale_beyond_the_bracket_cap_evaluates_f(self):
        # at N s/2 in (700, 709] the bracket scales u by e^700, not
        # e^{Ns/2}, so its f array must not stand in for the gradient's;
        # on a constant profile the Laplacian vanishes inside the grid
        # and the f term alone sets the gradient there
        N, s = 8, 176.0
        nl = builtin("pure_power", N, p=2.6)
        grid = make_grid(N, 24.0, 2001)
        u = GridFunction(grid, np.full(grid.nodes.size, 1e-120))
        f_values = {}
        b = functional._fiber_bracket(u, nl, s, f_values=f_values)
        assert 0.5 * N * s > functional._SCALE_LOG_MAX
        fiber = functional.FiberResult(s_star=s, value=0.0, residual=abs(b),
                                       bracket=(s, s), _f_star=(u.values, nl, f_values[s]))
        got = functional.reduced_gradient(u, nl, fiber).values
        ref = functional.reduced_gradient(
            u, nl, dataclasses.replace(fiber, _f_star=None)).values
        assert np.array_equal(bits(got), bits(ref))
        capped = (math.exp(2.0 * s) * functional.neg_laplacian(u).values
                  - math.exp(-0.5 * N * s) * f_values[s])
        assert np.all(np.isfinite(ref)) and np.all(ref[:-2] != capped[:-2])


def eager_bracket(u, nl, s):
    """_fiber_bracket as it stood with the non-finite repair run on every
    evaluation and f and F evaluated separately."""
    g = u.grid
    N = g.dimension
    T = functional.grad_norm_sq(u)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = math.exp(min(0.5 * N * s, 700.0)) * u.values
        F = nl.F(scaled)
        ft = nl.f(scaled) * scaled - 2.0 * F
        bad = ~np.isfinite(ft)
        if np.any(bad):
            ft = np.where(bad, np.where(np.abs(scaled) > 1e30, np.inf, 0.0), ft)
        integral = g.integrate(ft)
    if integral == 0.0:
        return T
    log_term = math.log(0.5 * N * abs(integral)) - (N + 2) * s
    return T - math.copysign(math.exp(min(log_term, functional._LOG_MAX)), integral)


class TestLazyRepair:
    """The bracket repairs non-finite F_tilde lanes only when the integral
    is not finite; its bits equal the eager repair's over the whole
    admissible range of s, where F_tilde overflows to inf and NaN."""

    S = np.linspace(-functional._BRACKET_CAP, functional._BRACKET_CAP, 41)

    def test_lazy_repair_matches_eager(self):
        # F_tilde of the exponential spec is inf - inf = NaN from |t| ~ 27
        # on, so the repair writes 0 at moderate and inf at huge arguments
        growth = from_callables("exp", compile_expression("t * exp(t^2)"),
                                compile_expression("(exp(t^2) - 1) / 2"))
        specs = [(name, nl, profiles[:2]) for name, nl, profiles in fiber_specs(2)]
        specs.append(("exp", growth, fiber_profiles(1, (0.5, 2.0), 2, seed=4)))
        repaired = {"moderate": 0, "huge": 0}
        for name, nl, profiles in specs:
            for u in profiles:
                for s in self.S:
                    s = float(s)
                    got = functional._fiber_bracket(u, nl, s)
                    assert bits(got) == bits(eager_bracket(u, nl, s)), (name, s)
                    scaled = math.exp(min(0.5 * u.grid.dimension * s, 700.0)) * u.values
                    with np.errstate(all="ignore"):
                        bad = ~np.isfinite(nl.f(scaled) * scaled - 2.0 * nl.F(scaled))
                    huge = np.abs(scaled) > 1e30
                    repaired["moderate"] += int(np.any(bad & ~huge))
                    repaired["huge"] += int(np.any(bad & huge))
        assert repaired["moderate"] > 0 and repaired["huge"] > 0, repaired


def full_bracket(u, nl, s, T=None, F_integrals=None, f_values=None, blocks=None):
    """_fiber_bracket as it stood before the live-prefix cut: the pair on
    every lane of the grid.  blocks is taken and ignored, so that project
    can run on this function."""
    g = u.grid
    N = g.dimension
    if T is None:
        T = functional.grad_norm_sq(u)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = math.exp(min(0.5 * N * s, functional._SCALE_LOG_MAX)) * u.values
        fv, F = nl.f_and_F(scaled)
        ft = fv * scaled
        ft -= 2.0 * F
        if F_integrals is not None:
            F_integrals[s] = g.integrate(F)
        if f_values is not None:
            f_values[s] = fv
        integral = g.integrate(ft)
        if not math.isfinite(integral):
            bad = ~np.isfinite(ft)
            ft = np.where(bad, np.where(np.abs(scaled) > 1e30, np.inf, 0.0), ft)
            integral = g.integrate(ft)
    if integral == 0.0:
        return T
    log_term = math.log(0.5 * N * abs(integral)) - (N + 2) * s
    return T - math.copysign(math.exp(min(log_term, functional._LOG_MAX)), integral)


def full_gradient(u, nl, fiber):
    """reduced_gradient as it stood before the cut, for a projection made
    on full_bracket: the f term on every lane."""
    N = u.grid.dimension
    s = fiber.s_star
    fv = fiber._f_star[2]
    if 0.5 * N * s > functional._SCALE_LOG_MAX:
        fv = nl.f(math.exp(0.5 * N * s) * u.values)
    return (math.exp(2.0 * s) * functional.neg_laplacian(u).values
            - math.exp(-0.5 * N * s) * fv)


def fiber_fields(fr):
    return bits([fr.s_star, fr.value, fr.residual, *fr.bracket]).tolist() + [fr.evaluations]


def live_count(u, nl, s):
    """The lanes the bracket at s evaluates, checked against the cut's
    contract: every lane past them scales below the dead floor, and the
    block of lanes before the cut holds one that does not."""
    f_values = {}
    functional._fiber_bracket(u, nl, s, f_values=f_values)
    n = len(f_values[s])
    scale = math.exp(min(0.5 * u.grid.dimension * s, functional._SCALE_LOG_MAX))
    live = ~(scale * np.abs(u.values) < nl.dead_floor)
    assert not live[n:].any()
    block = functional._LIVE_BLOCK
    assert n in (0, u.values.size) or live[(n - 1) // block * block:n].any()
    return n


class TestLivePrefix:
    """The bracket evaluates the pair on the live prefix of the grid only;
    its value and F integral, every projection field, the bracket calls
    project makes and the reduced gradient carry the bits of the
    full-array reference above."""

    def assert_matches_full(self, u, nl, s_values, hints):
        T = functional.grad_norm_sq(u)
        for s in s_values:
            live_count(u, nl, s)
            got_F, ref_F = {}, {}
            got = functional._fiber_bracket(u, nl, s, T, got_F)
            ref = full_bracket(u, nl, s, T, ref_F)
            assert bits(got) == bits(ref), (nl.name, s)
            assert bits(got_F[s]) == bits(ref_F[s]), (nl.name, s)
        for hint in hints:
            seen = []
            inner = functional._fiber_bracket

            def record(u_, nl_, s, *args):
                b = inner(u_, nl_, s, *args)
                seen.append((s, b))
                return b

            with mock.patch.object(functional, "_fiber_bracket", record):
                fr = functional.project(u, nl, s_hint=hint)
            with mock.patch.object(functional, "_fiber_bracket", full_bracket):
                ref = functional.project(u, nl, s_hint=hint)
            assert fiber_fields(fr) == fiber_fields(ref), (nl.name, hint)
            got = functional.reduced_gradient(u, nl, fr).values
            assert np.array_equal(bits(got), bits(full_gradient(u, nl, ref))), (nl.name, hint)
            # a standalone call, as FiberBatch.check makes, gives the bits
            # of the call inside project
            for s, b in seen:
                assert bits(functional._fiber_bracket(u, nl, s)) == bits(b), (nl.name, s)

    def test_benchmark_profiles(self):
        for name, nl, profiles in fiber_specs(3):
            cut = 0
            for u in profiles:
                s = functional.project(u, nl).s_star
                self.assert_matches_full(u, nl, [s - 8.0, s - 2.0, s, s + 1.0, s + 3.0],
                                         [0.0, s + 0.3])
                cut += live_count(u, nl, s) < u.values.size
            # the builtins cut dead tails; the user spec has no floor
            assert (cut > 0) == (name != "user"), name

    @given(case=st.sampled_from(FIBER_CASES + (("user", 1, {}, None),)),
           seed=st.integers(0, 2**31 - 1), delta=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_random_profiles(self, case, seed, delta):
        name, N, params, _ = case
        nl = user_spec() if name == "user" else builtin(name, N, **params)
        u = random_profiles(make_grid(N, 16.0, 801), 1, seed=seed, widths=(0.3, 4.0))[0]
        s = functional.project(u, nl).s_star
        self.assert_matches_full(u, nl, [s - 5.0, s, s + 2.0], [0.0, s + delta])

    def test_every_lane_cut(self):
        # below the scale where max|u| reaches the floor nothing is
        # evaluated: an F integral of 0 and a bracket of exactly T.  The
        # full-array reference gives that bracket too, and an F integral
        # that lies in the subnormal range (2.4e-311 for
        # log_supercritical): the one case where a dead lane moves an
        # integral is an integral that is itself below 2^-1022
        tiny = np.finfo(float).tiny
        for name, nl, profiles in fiber_specs(1):
            if name == "user":
                continue
            u = profiles[0]
            N = u.grid.dimension
            T = functional.grad_norm_sq(u)
            top = 2.0 / N * (math.log(nl.dead_floor) - math.log(np.max(np.abs(u.values)))) - 1.0
            for s in (top, top - 10.0):
                assert live_count(u, nl, s) == 0, name
                got_F, ref_F = {}, {}
                assert functional._fiber_bracket(u, nl, s, T, got_F) == T, name
                assert full_bracket(u, nl, s, T, ref_F) == T, name
                assert got_F[s] == 0.0 and abs(ref_F[s]) < tiny, name

    def test_f_star_past_the_cut(self):
        # the floor bounds the integrands f t and F, not f: at s(u) the
        # bracket stops before the last lane whose f is normal, and project
        # fills f itself on the lanes past its prefix
        nl = builtin("log_supercritical", 2)
        for u in fiber_profiles(2, (1.5, 4.0), 3, seed=1):
            fr = functional.project(u, nl)
            s = fr.s_star
            f_values = {}
            functional._fiber_bracket(u, nl, s, f_values=f_values)
            ref_f = nl.f(math.exp(s) * u.values)
            normal = np.abs(ref_f) >= np.finfo(float).tiny
            assert len(f_values[s]) < np.flatnonzero(normal)[-1] + 1
            assert np.array_equal(bits(fr._f_star[2]), bits(ref_f))
            with mock.patch.object(functional, "_fiber_bracket", full_bracket):
                ref = functional.project(u, nl)
            got = functional.reduced_gradient(u, nl, fr).values
            assert np.array_equal(bits(got), bits(full_gradient(u, nl, ref)))

    def test_no_lane_cut(self):
        # a profile live in its last block keeps every lane
        for name, N, params, _ in FIBER_CASES:
            nl = builtin(name, N, **params)
            g = make_grid(N, 16.0, 801)
            vals = np.exp(-((g.nodes / 12.0) ** 2))
            vals[-1] = 0.0
            u = GridFunction(g, vals)
            s = functional.project(u, nl).s_star
            blocks = functional._block_maxima(u)
            for t in (s - 3.0, s, s + 3.0):
                scale = math.exp(0.5 * N * t)
                assert functional._live_lanes(u, nl.dead_floor, scale, blocks) == g.size, name
                assert live_count(u, nl, t) == g.size, name
            self.assert_matches_full(u, nl, [s - 3.0, s, s + 3.0], [0.0])

    def test_short_dead_tail(self):
        # a dead tail of 41 lanes, under 1/16 of the 801-lane grid, that
        # covers the last block (lanes 768-800): every bracket stops at 768
        for name, N, params, _ in FIBER_CASES:
            nl = builtin(name, N, **params)
            g = make_grid(N, 16.0, 801)
            vals = np.clip(1.0 - (g.nodes / g.nodes[760]) ** 2, 0.0, None) ** 2
            u = GridFunction(g, vals)
            assert vals[759] > 0.0 and not vals[760:].any()
            assert g.size - 768 < g.size // 16
            s = functional.project(u, nl).s_star
            for t in (s - 3.0, s, s + 3.0):
                assert live_count(u, nl, t) == 768, name
            self.assert_matches_full(u, nl, [s - 3.0, s, s + 3.0], [0.0, s + 1.0])

    def test_bump_beyond_a_dead_stretch(self):
        # a narrow bump far out in the tail, behind a stretch where every
        # lane scales below the floor: the cut lies past the bump
        nl = builtin("pure_power", 1, p=8.0)
        g = make_grid(1, 24.0, 24001)
        r = g.nodes
        vals = np.exp(-((r / 0.8) ** 2)) + 1e-3 * np.exp(-(((r - 20.0) / 0.05) ** 2))
        vals[-1] = 0.0
        u = GridFunction(g, vals)
        s = functional.project(u, nl).s_star
        scale = math.exp(0.5 * s)
        dead = scale * np.abs(vals) < nl.dead_floor
        n = live_count(u, nl, s)
        bump = int(np.searchsorted(r, 20.0))
        assert bump < n < g.size
        assert dead[int(np.searchsorted(r, 12.0)):int(np.searchsorted(r, 18.0))].all()
        self.assert_matches_full(u, nl, [s - 4.0, s, s + 4.0], [0.0, s + 1.0])

    def test_scale_cap(self):
        # from N s/2 = _SCALE_LOG_MAX on, the scale stays e^700
        for name, nl, profiles in fiber_specs(1):
            u = profiles[0]
            cap = 2.0 * functional._SCALE_LOG_MAX / u.grid.dimension
            self.assert_matches_full(u, nl, [cap - 1.0, cap, cap + 5.0], [])
