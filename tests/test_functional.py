import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from nlsground import (
    GridFunction,
    NonconformanceError,
    action,
    builtin,
    dilate,
    fiber_action,
    fiber_pohozaev,
    grad_norm_sq,
    make_grid,
    mass,
    pohozaev,
    project,
    reduced_gradient,
    reduced_value,
)
from nlsground import functional
from nlsground.expressions import compile_expression
from nlsground.nonlinearity import from_callables
from nlsground.oracles import Bubble, Soliton1D

from conftest import random_profiles


@pytest.fixture(scope="module")
def p8():
    return builtin("pure_power", 1, p=8.0)


@pytest.fixture(scope="module")
def log2d():
    return builtin("log_supercritical", 2)


@pytest.fixture(scope="module")
def line_grid():
    return make_grid(1, 16.0, 2001)


@pytest.fixture(scope="module")
def fine_line_grid():
    return make_grid(1, 12.0, 8001)


def bump(grid, sigma=1.3, amp=1.2):
    vals = amp * np.exp(-((grid.nodes / sigma) ** 2))
    vals[-1] = 0.0
    return GridFunction(grid, vals)


def subcritical_quartic():
    # mass-subcritical power: the bracket increases in s, so no
    # projection exists
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** 2.0 * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** 4.0 / 4.0

    return from_callables("subcritical_quartic", f, F)


def low_scale_negative():
    # F_tilde = -t^4/2 + 4t^10/5 is negative near 0: at N = 1 the bracket
    # still decreases in s, but exceeds ||grad u||^2 at low scales
    def f(t):
        t = np.asarray(t, dtype=float)
        return -np.abs(t) ** 2 * t + np.abs(t) ** 8 * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return -np.abs(t) ** 4 / 4.0 + np.abs(t) ** 10 / 10.0

    return from_callables("low_scale_negative", f, F)


# the criterion-5 builtins at their criterion-5 dimension and parameters
FIBER_BUILTINS = [
    ("pure_power", 1, {"p": 8.0}),
    ("log_supercritical", 2, {}),
    ("critical_piecewise", 5, {}),
    ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}),
]


class TestActionPohozaev:
    def test_zero_profile(self, line_grid, p8):
        z = GridFunction(line_grid, np.zeros(line_grid.size))
        assert action(z, p8) == 0.0
        assert pohozaev(z, p8) == 0.0

    def test_soliton_action_matches_oracle(self, p8):
        orc = Soliton1D(8.0, Soliton1D.mu_for_mass(8.0, 1.0))
        g = make_grid(1, 30.0, 4001, stretch=60.0)
        u = GridFunction(g, orc.profile(g.nodes))
        assert action(u, p8) == pytest.approx(orc.action, rel=2e-4)
        # solutions sit on the Pohozaev manifold
        assert abs(pohozaev(u, p8)) < 1e-4 * grad_norm_sq(u)

    def test_bubble_action_and_pohozaev(self):
        # U_eps solves the critical equation with mu = 0, so P = 0 and
        # I = ||grad||^2 / N.  The polynomially decaying tail needs a far
        # truncation radius: the Dirichlet boundary layer, not the core
        # resolution, limits the accuracy.
        nl = builtin("critical_piecewise", 5)
        b = Bubble(5, Bubble.minimal_mass(5) / Bubble(5, 1.0).unit_mass)
        g = make_grid(5, 3000.0, 8001, stretch=2.0)
        u = GridFunction(g, b.profile(g.nodes))
        T = grad_norm_sq(u)
        assert action(u, nl) == pytest.approx(T / 5.0, rel=2e-3)
        assert action(u, nl) == pytest.approx(b.action, rel=2e-3)
        assert abs(pohozaev(u, nl)) < 1e-3 * T


class TestDilate:
    def test_identity_at_zero(self, line_grid):
        u = bump(line_grid)
        v = dilate(0.0, u)
        assert np.array_equal(u.values, v.values)

    def test_mass_preserved(self, fine_line_grid):
        u = bump(fine_line_grid)
        for s in (-1.0, -0.3, 0.4, 1.0):
            assert mass(dilate(s, u)) == pytest.approx(mass(u), rel=1e-6)

    def test_gradient_scaling(self, fine_line_grid):
        u = bump(fine_line_grid)
        T = grad_norm_sq(u)
        for s in (-1.0, 0.5, 1.0):
            assert grad_norm_sq(dilate(s, u)) == pytest.approx(
                math.exp(2.0 * s) * T, rel=1e-5
            )

    def test_zero_extension_beyond_radius(self, line_grid):
        u = bump(line_grid, sigma=6.0)
        v = dilate(1.0, u)  # samples u at e * r, beyond R for most nodes
        outside = math.e * line_grid.nodes > line_grid.radius
        assert np.all(v.values[outside] == 0.0)
        assert np.all(np.isfinite(v.values))


class TestFiberMap:
    def test_matches_action_at_zero(self, line_grid, p8):
        u = bump(line_grid)
        assert fiber_action(u, p8, 0.0) == action(u, p8)

    def test_limits(self, p8, log2d):
        for nl, N in ((p8, 1), (log2d, 2)):
            g = make_grid(N, 15.0, 801)
            u = bump(g)
            low = fiber_action(u, nl, -20.0)
            assert 0.0 < low < 1e-10
            assert fiber_action(u, nl, 10.0) < 0.0

    def test_derivative_identity(self, line_grid, p8):
        u = bump(line_grid)
        for s in (-1.5, -0.2, 0.7, 2.0):
            eps = 1e-6
            fd = (fiber_action(u, p8, s + eps) - fiber_action(u, p8, s - eps)) / (2 * eps)
            assert fiber_pohozaev(u, p8, s) == pytest.approx(fd, rel=1e-6)

    def test_zero_profile_fiber(self, line_grid, p8):
        z = GridFunction(line_grid, np.zeros(line_grid.size))
        for s in (-3.0, 0.0, 3.0):
            assert fiber_pohozaev(z, p8, s) == 0.0

    @pytest.mark.parametrize("name, N, kw", [
        ("pure_power", 1, {"p": 8.0}),
        ("log_supercritical", 2, {}),
        ("critical_piecewise", 5, {}),
        ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}),
        ("subcritical_quartic", 1, None),
    ])
    def test_overflow_guard_at_cap(self, name, N, kw):
        # at s = +cap the scaled profile overflows F_tilde and at -cap
        # e^{-(N+2)s} would overflow: the bracket stays a number, with the
        # sign f1/f3/f4 dictate wherever they hold
        nl = subcritical_quartic() if kw is None else builtin(name, N, **kw)
        cap = functional._BRACKET_CAP
        g = make_grid(N, 16.0, 801)
        for u in random_profiles(g, 4, seed=5):
            at_top = functional._fiber_bracket(u, nl, cap)
            at_bottom = functional._fiber_bracket(u, nl, -cap)
            assert not math.isnan(at_top) and not math.isnan(at_bottom)
            if kw is not None:
                assert at_top < 0.0 < at_bottom

    def test_bracket_strictly_decreasing(self, line_grid, p8):
        u = bump(line_grid)
        brackets = [fiber_pohozaev(u, p8, s) / math.exp(2.0 * s)
                    for s in (-1.0, 0.0, 1.0)]
        assert brackets[0] > brackets[1] > brackets[2]


class TestProject:
    def test_on_manifold_fixed_point(self, line_grid, p8):
        u = bump(line_grid)
        fr = project(u, p8)
        materialized = dilate(fr.s_star, u)
        again = project(materialized, p8)
        assert abs(again.s_star) < 1e-4
        assert abs(pohozaev(materialized, p8)) < 1e-4 * grad_norm_sq(materialized)

    def test_residual_contract(self):
        # cold projections, and warm ones from the previous profile's s*
        # and from the profile's own, on the criterion-5 builtins and the
        # README user spec: a finite sign-change interval holding s*
        specs = [(builtin(name, N, **params), N) for name, N, params in FIBER_BUILTINS]
        specs.append((from_callables("user", compile_expression("abs(t)^6 * t"),
                                     compile_expression("abs(t)^8 / 8")), 1))
        for nl, N in specs:
            g = make_grid(N, 16.0, 2001)
            earlier = 0.0
            for u in random_profiles(g, 10, seed=4):
                cold = project(u, nl)
                for fr in (cold, project(u, nl, s_hint=earlier),
                           project(u, nl, s_hint=cold.s_star)):
                    lo, hi = fr.bracket
                    assert math.isfinite(lo) and math.isfinite(hi)
                    assert functional._fiber_bracket(u, nl, lo) >= 0.0
                    assert functional._fiber_bracket(u, nl, hi) <= 0.0
                    assert lo <= fr.s_star <= hi
                    assert fr.residual <= 1e-10 * max(1.0, grad_norm_sq(u))
                earlier = cold.s_star

    def test_bracket_above_gradient_energy(self, line_grid):
        # where the bracket is >= ||grad u||^2, y = -inf and a secant
        # through that point is NaN: the loop must bisect, not step to NaN
        nl = low_scale_negative()
        for u in random_profiles(line_grid, 10, seed=1):
            fr = project(u, nl)
            lo, hi = fr.bracket
            assert math.isfinite(lo) and math.isfinite(hi)
            assert functional._fiber_bracket(u, nl, lo) >= 0.0
            assert functional._fiber_bracket(u, nl, hi) <= 0.0

    def test_unique_sign_change(self, line_grid, p8):
        u = bump(line_grid)
        fr = project(u, p8)
        ss = np.linspace(-5.0, 5.0, 21)
        signs = np.sign([fiber_pohozaev(u, p8, s) for s in ss])
        changes = np.sum(np.abs(np.diff(signs)) > 0)
        assert changes == 1

    def test_maximizer_property(self, line_grid, p8):
        u = bump(line_grid)
        fr = project(u, p8)
        for s in np.linspace(-5.0, 5.0, 21):
            if abs(s - fr.s_star) > 1e-6:
                assert fr.value > fiber_action(u, p8, s)

    def test_cocycle_law(self, fine_line_grid, p8):
        u = bump(fine_line_grid)
        fr = project(u, p8)
        for s0 in (-1.0, -0.4, 0.4, 1.0):
            shifted = project(dilate(s0, u), p8)
            assert shifted.s_star == pytest.approx(fr.s_star - s0, abs=1e-5)

    def test_rescaled_oracle_profile_dominates_minimum(self, p8):
        # mass-rescaling moves the soliton off the manifold; the fiber
        # value is an upper bound for J and can only exceed E_m
        mu = Soliton1D.mu_for_mass(8.0, 1.0)
        orc = Soliton1D(8.0, mu)
        g = make_grid(1, 30.0, 4001, stretch=60.0)
        u = GridFunction(g, 1.3 * orc.profile(g.nodes))
        fr = project(u, p8)
        e_m = Soliton1D.energy_of_mass(8.0, mass(u))
        assert fr.value >= e_m * (1 - 1e-3)
        assert abs(fr.s_star) > 1e-3

    def test_zero_profile_rejected(self, line_grid, p8):
        z = GridFunction(line_grid, np.zeros(line_grid.size))
        with pytest.raises(ValueError):
            project(z, p8)

    def test_nonconforming_nonlinearity(self, line_grid):
        # the failure must name the hypothesis and the real search limit
        u = bump(line_grid)
        cap = f"{functional._BRACKET_CAP:g}"
        with pytest.raises(NonconformanceError, match=rf"s = {cap}:.*f[134]"):
            project(u, subcritical_quartic())

    @pytest.mark.parametrize("s_hint, text", [
        (5.0, "no Pohozaev sign change up to s = 200: the nonlinearity numerically "
              "violates (f3) or (f4) (bracket never turns negative)"),
        (-5.0, "no Pohozaev sign change down to s = -200: the nonlinearity numerically "
               "violates (f1) or (f4) (bracket never turns positive)"),
    ])
    def test_expansion_failure_names_its_side(self, line_grid, s_hint, text):
        # the subcritical bracket increases in s: from an anchor where it
        # is positive the upward search never sees it turn negative, from
        # one where it is negative the downward one never sees it turn
        # positive
        with pytest.raises(NonconformanceError) as exc:
            project(bump(line_grid), subcritical_quartic(), s_hint=s_hint)
        assert str(exc.value) == text

    @pytest.mark.parametrize("s_hint", [5.0, -5.0])
    def test_unusable_slope_takes_the_doubling_path(self, line_grid, s_hint):
        # F = t^4/4 at N = 1 has k = (1/2)(4 - 2) - 2 = -1: no Newton step,
        # so every step is the unit-slope guess bounded by doubling the
        # distance from the anchor (the secants point the wrong way), out
        # to the cap
        u, nl = bump(line_grid), subcritical_quartic()
        T = grad_norm_sq(u)
        F_integrals = {}
        b = functional._fiber_bracket(u, nl, s_hint, T, F_integrals)
        k = functional._slope_estimate(T, b, F_integrals[s_hint], s_hint, 1)
        assert k == pytest.approx(-1.0, rel=1e-12)
        with mock.patch.object(functional, "_fiber_bracket",
                               wraps=functional._fiber_bracket) as bracket:
            with pytest.raises(NonconformanceError):
                project(u, nl, s_hint=s_hint)
        steps = [call.args[2] for call in bracket.call_args_list]
        d = math.copysign(1.0, s_hint)
        want = [s_hint + d * x for x in (0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128)]
        assert steps == want + [d * functional._BRACKET_CAP]

    @pytest.mark.parametrize("N, p", [(1, 8.0), (2, 5.5), (3, 4.5), (5, 3.1)])
    def test_slope_estimate_is_exact_for_pure_powers(self, N, p):
        # int F_tilde / int F = p - 2 for F = |t|^p / p, so
        # k = (N/2)(p - 2) - 2 whatever the profile and s
        nl = builtin("pure_power", N, p=p)
        g = make_grid(N, 16.0, 801)
        for u in random_profiles(g, 3, seed=N):
            T = grad_norm_sq(u)
            s_star = project(u, nl).s_star
            for s in (s_star - 2.0, s_star, s_star + 1.0):
                F_integrals = {}
                b = functional._fiber_bracket(u, nl, s, T, F_integrals)
                k = functional._slope_estimate(T, b, F_integrals[s], s, N)
                assert k == pytest.approx(0.5 * N * (p - 2.0) - 2.0, rel=1e-12)

    @pytest.mark.parametrize("N, p", [(1, 8.0), (2, 5.5), (3, 4.5)])
    @given(seed=st.integers(0, 2**31 - 1))
    @example(seed=6597)
    @settings(max_examples=10, deadline=None)
    def test_pure_power_closed_form(self, N, p, seed):
        # for F = |t|^p / p the bracket is T - (N/2)(1 - 2/p) A e^{ks},
        # k = N(p-2)/2 - 2, with A = int |u|^p, so s(u) is explicit
        nl = builtin("pure_power", N, p=p)
        g = make_grid(N, 16.0, 801)
        k = 0.5 * N * (p - 2.0) - 2.0
        for u in random_profiles(g, 3, seed=seed):
            A = g.integrate(np.abs(u.values) ** p)
            s_exact = math.log(grad_norm_sq(u) / (0.5 * N * (1.0 - 2.0 / p) * A)) / k
            with mock.patch.object(functional, "_fiber_bracket",
                                   wraps=functional._fiber_bracket) as bracket:
                fr = project(u, nl)
            assert fr.s_star == pytest.approx(s_exact, abs=1e-10)
            assert fr.bracket[0] <= fr.s_star <= fr.bracket[1]
            # y is linear in s with the slope k that the Newton step from
            # the anchor uses: the anchor, the step onto the root and one
            # closing step (measured: 2-3).  At large s* (N = 1, p = 8,
            # seed 6597: s* >= 4.45) T - b at the anchor is about 0.5 % of
            # T and formed by cancellation, so the Newton step can miss
            # the root by more than the stop tolerance (1.4e-13 against
            # 1.05e-13) and one secant step follows (measured: 4 in 23 of
            # seeds 0-7999 for N = 1, never for the other two cases)
            assert bracket.call_count <= 4

    def test_evaluation_budget(self, monkeypatch, line_grid, p8, log2d):
        # measured: warm projections take 2-5 bracket evaluations (mean
        # 3.55) and cold ones 2-7; the bounds add a margin, and the exact
        # counts pin the root solver's iterates
        calls = [0]
        inner = functional._fiber_bracket

        def counted(*args, **kw):
            calls[0] += 1
            return inner(*args, **kw)

        monkeypatch.setattr(functional, "_fiber_bracket", counted)

        def evaluations(u, nl, s_hint=0.0):
            calls[0] = 0
            fr = project(u, nl, s_hint=s_hint)
            return calls[0], fr

        cold, warm = [], []
        for nl, g in ((p8, line_grid), (log2d, make_grid(2, 16.0, 1201))):
            profiles = random_profiles(g, 12, seed=3)
            for a, b in zip(profiles, profiles[1:]):
                n, fr = evaluations(a, nl)
                cold.append(n)
                for eps in (1e-3, 1e-2):
                    near = GridFunction(g, (1.0 - eps) * a.values + eps * b.values)
                    warm.append(evaluations(near, nl, fr.s_star)[0])
        assert np.mean(warm) <= 5
        assert max(cold) <= 14
        assert (cold[0], warm[0], sum(cold), sum(warm)) == (3, 3, 91, 156)

    @pytest.mark.parametrize("name, N, params", FIBER_BUILTINS,
                             ids=[spec[0] for spec in FIBER_BUILTINS])
    def test_evaluations_counter_is_the_bracket_calls(self, name, N, params):
        nl = builtin(name, N, **params)
        u = random_profiles(make_grid(N, 16.0, 801), 1, seed=6)[0]
        for s_hint in (0.0, project(u, nl).s_star + 0.3):  # cold, then warm
            with mock.patch.object(functional, "_fiber_bracket",
                                   wraps=functional._fiber_bracket) as bracket:
                fr = project(u, nl, s_hint=s_hint)
            assert fr.evaluations == bracket.call_count >= 1


EPS = float(np.finfo(float).eps)


class TestProjectProperties:
    """project on random smooth profiles, from cold and warm hints."""

    SPECS = FIBER_BUILTINS + [("user", 1, {})]

    @staticmethod
    def spec(name, N, params):
        if name == "user":
            return from_callables("user", compile_expression("abs(t)^6 * t"),
                                  compile_expression("abs(t)^8 / 8"), params={"N": N})
        return builtin(name, N, **params)

    @staticmethod
    def bisect(u, nl):
        """A sign change of the bracket by plain bisection down to
        adjacent doubles, from an interval grown around s = 0."""
        def bracket(s):
            return functional._fiber_bracket(u, nl, s)

        lo, hi = -1.0, 1.0
        while bracket(lo) < 0.0:
            lo *= 2.0
        while bracket(hi) > 0.0:
            hi *= 2.0
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo
            if bracket(mid) >= 0.0:
                lo = mid
            else:
                hi = mid

    @pytest.mark.parametrize("name, N, params", SPECS, ids=[spec[0] for spec in SPECS])
    @given(sigma=st.floats(0.5, 3.0), amp=st.floats(0.2, 3.0), mode=st.integers(0, 2),
           ripple=st.floats(-0.4, 0.4), delta=st.floats(-2.0, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_cold_and_warm_roots(self, name, N, params, sigma, amp, mode, ripple, delta):
        nl = self.spec(name, N, params)
        g = make_grid(N, 16.0, 801)
        r = g.nodes
        vals = amp * np.exp(-((r / sigma) ** 2)) * (
            1.0 + ripple * np.cos(mode * math.pi * r / (4.0 * sigma)))
        vals[-1] = 0.0
        u = GridFunction(g, vals)

        def counted(s_hint):
            with mock.patch.object(functional, "_fiber_bracket",
                                   wraps=functional._fiber_bracket) as bracket:
                fr = project(u, nl, s_hint=s_hint)
            assert fr.evaluations == bracket.call_count
            return fr

        cold = counted(0.0)
        s = cold.s_star
        warm = counted(s + delta)
        for fr in (cold, warm):
            lo, hi = fr.bracket
            assert functional._fiber_bracket(u, nl, lo) >= 0.0 >= functional._fiber_bracket(u, nl, hi)
            assert lo <= fr.s_star <= hi
        # The loop stops once its next step is at most
        # tol = width + 4 eps |s|, so each s* lies within about tol of the
        # computed bracket's sign change.  That sign change is itself only
        # defined up to the bracket's round-off: its term
        # e^{log(N/2 |int F_tilde|) - (N+2)s} carries a relative error of
        # about eps ((N+2)|s| + 64), and |d bracket/ds| is about k T at
        # the root, k the slope estimate.  Each s* therefore lies within
        # the sum of the two of a bisection reference, and cold and warm
        # s* agree within twice that sum.
        T = grad_norm_sq(u)
        F_integrals = {}
        b = functional._fiber_bracket(u, nl, s, T, F_integrals)
        k = functional._slope_estimate(T, b, F_integrals[s], s, N)
        tol = functional._ROOT_WIDTH + functional._ROOT_RTOL * abs(s)
        zone = EPS * ((N + 2) * abs(s) + 64.0) / k
        ref = self.bisect(u, nl)
        for fr in (cold, warm):
            assert abs(fr.s_star - ref) <= tol + zone
        assert abs(warm.s_star - s) <= 2.0 * (tol + zone)


class TestScipyPorts:
    """The in-house PCHIP resample gives scipy's bits."""

    @staticmethod
    def reference(g, vals, s):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = PchipInterpolator(g.nodes, vals, extrapolate=False)(math.exp(s) * g.nodes)
        return math.exp(0.5 * g.dimension * s) * np.where(np.isnan(ref), 0.0, ref)

    @staticmethod
    def ragged(g, seed):
        gen = np.random.default_rng(seed)
        vals = np.round(gen.normal(size=g.size), 1)
        vals[gen.random(g.size) < 0.3] = 0.0
        vals[g.size // 4: g.size // 3] = 0.7
        vals[-1] = 0.0
        return vals

    @pytest.mark.parametrize("N, R, K, stretch", [
        (2, 400.0, 4001, 150.0),  # log_sweep
        (1, 30.0, 4001, 60.0),  # criterion 2
        (3, 600.0, 4001, 30.0),  # criterion 4
    ])
    def test_dilate_matches_pchip(self, N, R, K, stretch):
        g = make_grid(N, R, K, stretch=stretch)
        profiles = [self.ragged(g, 1), random_profiles(g, 1, seed=2, widths=(0.05 * R, 0.2 * R))[0].values]
        for vals in profiles:
            u = GridFunction(g, vals)
            # s = 0 is a copy, not a resample
            for s in np.linspace(-6.0, 6.0, 12):
                assert np.array_equal(dilate(s, u).values, self.reference(g, vals, s))

    def test_dilate_on_nodes_at_R_and_beyond(self):
        # e^{ln 2} = 2 exactly, so on nodes 0, 1, ..., 16 the queries are
        # the even nodes, R itself, and points beyond R
        g = make_grid(1, 16.0, 17)
        # zeros, plateaus, and a -0.0 on a steepening descent, where every
        # term of the cubic at that node is -0.0
        vals = np.array([0.5, 0.5, 1.0, 0.5, -0.0, -1.0, -4.0, -4.0, 0.75,
                         0.0, 0.0, 2.0, 1.0, -0.0, -1.0, 0.25, 0.0])
        for s in (math.log(2.0), math.log(0.5), 0.3):
            got, ref = dilate(s, GridFunction(g, vals)).values, self.reference(g, vals, s)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        # a -0.0 sample queried on its own node comes back as +0.0
        with np.errstate(divide="ignore"):
            assert not np.signbit(functional._pchip(g.nodes, vals, g.nodes)[4])


class TestReducedFunctional:
    def test_dilation_invariance(self, fine_line_grid, p8):
        u = bump(fine_line_grid)
        J = reduced_value(u, p8)
        for s in (-1.0, 0.5, 1.0):
            assert reduced_value(dilate(s, u), p8) == pytest.approx(J, rel=1e-5)

    def test_positive_on_nonzero_profiles(self, line_grid, p8, log2d):
        for u in random_profiles(line_grid, 12, seed=9):
            assert reduced_value(u, p8) > 0.0
        g2 = make_grid(2, 16.0, 1201)
        for u in random_profiles(g2, 8, seed=10):
            assert reduced_value(u, log2d) > 0.0

    def test_projected_gradient_norm_lower_bound(self, line_grid, p8):
        # Pohozaev-manifold representatives keep a uniformly positive
        # gradient norm at fixed mass
        lows = []
        for u in random_profiles(line_grid, 10, seed=12):
            from nlsground import sphere_retract

            u1 = sphere_retract(u, 1.0)
            fr = project(u1, p8)
            lows.append(grad_norm_sq(dilate(fr.s_star, u1)))
        assert min(lows) > 1e-2

    def test_gradient_matches_finite_differences(self, log2d):
        # directions must be smooth: finite differencing J along rough
        # vectors picks up the Laplacian's 1/h^2 curvature in the
        # truncation term
        g = make_grid(2, 16.0, 1201)
        gen = np.random.default_rng(21)
        for u in random_profiles(g, 5, seed=17):
            fiber = project(u, log2d)
            grad = reduced_gradient(u, log2d, fiber)
            coef = gen.standard_normal(4)
            phi = sum(
                c * np.cos(k * math.pi * g.nodes / g.radius)
                for k, c in enumerate(coef)
            ) * np.exp(-((g.nodes / 3.0) ** 2))
            phi[-1] = 0.0
            eps = 1e-5
            up = GridFunction(g, u.values + eps * phi)
            um = GridFunction(g, u.values - eps * phi)
            fd = (reduced_value(up, log2d) - reduced_value(um, log2d)) / (2 * eps)
            ip = g.inner(grad.values, phi)
            assert fd == pytest.approx(ip, rel=1e-5)

    def test_gradient_formula_on_manifold(self, line_grid, p8):
        # at s(u) = 0 the reduced gradient is -Delta u - f(u)
        from nlsground import neg_laplacian

        u = bump(line_grid)
        v = dilate(project(u, p8).s_star, u)
        grad = reduced_gradient(v, p8)
        direct = neg_laplacian(v).values - p8.f(v.values)
        assert np.allclose(grad.values, direct, rtol=1e-3, atol=1e-8)
