import json
import math
from unittest import mock

import numpy as np
import pytest

from nlsground import (
    GridFunction,
    NonconformanceError,
    SolveOptions,
    builtin,
    grad_norm_sq,
    initial_profile,
    make_grid,
    mass,
    minimize,
    multiplier,
    multistart_minimize,
    sphere_retract,
    tangent_project,
)
from nlsground.expressions import compile_expression
from nlsground.functional import action, pohozaev, reduced_value
from nlsground.grid import ConfigurationError, neg_laplacian
from nlsground.nonlinearity import from_callables
from nlsground.optimizer import (
    _DECREASE, _PDE_TOL, _POHOZAEV_TOL, _certificate, _Descent,
)
from nlsground.oracles import Bubble, Soliton1D


@pytest.fixture(scope="module")
def p8():
    return builtin("pure_power", 1, p=8.0)


@pytest.fixture(scope="module")
def soliton_grid():
    return make_grid(1, 30.0, 4001, stretch=60.0)


@pytest.fixture(scope="module")
def solved(p8, soliton_grid):
    opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=2000)
    return minimize(soliton_grid, p8, opts)


@pytest.fixture(scope="module")
def criterion2_run(p8, soliton_grid):
    """(best, reports, brackets) of criterion 2's three-replica solve;
    brackets[i] counts the _fiber_bracket calls replica i made."""
    from nlsground import functional, optimizer

    opts = SolveOptions(mass=1.0, grad_tol=1e-8)
    brackets = []
    solve = optimizer.minimize
    with mock.patch.object(functional, "_fiber_bracket",
                           wraps=functional._fiber_bracket) as bracket:
        def counted(*args, **kw):
            before = bracket.call_count
            rep = solve(*args, **kw)
            brackets.append(bracket.call_count - before)
            return rep

        with mock.patch.object(optimizer, "minimize", counted):
            best, reports = multistart_minimize(soliton_grid, p8, opts, restarts=3)
    return best, reports, brackets


@pytest.fixture(scope="module")
def criterion2(criterion2_run):
    """(best, reports) of criterion 2's three-replica solve."""
    return criterion2_run[:2]


class TestInitialProfile:
    def test_mass_exact(self):
        g = make_grid(3, 10.0, 501)
        u = initial_profile(g, 1.0)
        assert mass(u) == pytest.approx(1.0, rel=1e-12)

    def test_mass_homogeneity(self):
        g = make_grid(3, 10.0, 501)
        u1 = initial_profile(g, 1.0)
        u4 = initial_profile(g, 4.0)
        assert np.allclose(u4.values, 2.0 * u1.values, rtol=1e-12, atol=0)

    def test_restart_roundtrip(self):
        # restarting from a profile at its own mass returns it bit for bit
        g = make_grid(2, 8.0, 301)
        u = initial_profile(g, 2.5, seed=3, noise=0.2)
        v = initial_profile(g, mass(u), custom=u)
        assert np.array_equal(u.values, v.values)

    def test_noise_keyed_by_seed(self):
        g = make_grid(1, 8.0, 301)
        a = initial_profile(g, 1.0, seed=1, noise=0.1)
        b = initial_profile(g, 1.0, seed=1, noise=0.1)
        c = initial_profile(g, 1.0, seed=2, noise=0.1)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestSphereRetract:
    def test_exact_mass(self):
        g = make_grid(2, 6.0, 200)
        gen = np.random.default_rng(2)
        for _ in range(5):
            u = GridFunction(g, gen.standard_normal(200))
            v = sphere_retract(u, 3.0)
            assert mass(v) == pytest.approx(3.0, rel=1e-15)

    def test_identity_on_sphere(self):
        g = make_grid(2, 6.0, 200)
        u = sphere_retract(GridFunction(g, np.exp(-g.nodes)), 2.0)
        v = sphere_retract(u, 2.0)
        assert np.allclose(v.values, u.values, rtol=1e-15)

    def test_sign_preserved(self):
        g = make_grid(2, 6.0, 200)
        vals = np.sin(g.nodes)
        v = sphere_retract(GridFunction(g, vals), 1.0)
        assert np.all(np.sign(v.values) == np.sign(vals))

    def test_zero_rejected(self):
        g = make_grid(2, 6.0, 200)
        with pytest.raises(ValueError):
            sphere_retract(GridFunction(g, np.zeros(200)), 1.0)


class TestTangentProject:
    def test_orthogonal_after_projection(self):
        g = make_grid(3, 6.0, 256)
        gen = np.random.default_rng(4)
        u = sphere_retract(GridFunction(g, np.exp(-g.nodes**2)), 2.0)
        for _ in range(5):
            vec = GridFunction(g, gen.standard_normal(256))
            t = tangent_project(vec, u, 2.0)
            ip = g.inner(t.values, u.values)
            assert abs(ip) <= 1e-12 * g.norm(vec.values) * g.norm(u.values)

    def test_parallel_maps_to_zero(self):
        g = make_grid(3, 6.0, 256)
        u = sphere_retract(GridFunction(g, np.exp(-g.nodes**2)), 2.0)
        t = tangent_project(GridFunction(g, 3.0 * u.values), u, 2.0)
        assert np.allclose(t.values, 0.0, atol=1e-12)

    def test_tangent_unchanged(self):
        g = make_grid(3, 6.0, 256)
        u = sphere_retract(GridFunction(g, np.exp(-g.nodes**2)), 2.0)
        gen = np.random.default_rng(5)
        vec = GridFunction(g, gen.standard_normal(256))
        t = tangent_project(vec, u, 2.0)
        t2 = tangent_project(t, u, 2.0)
        assert np.allclose(t.values, t2.values, rtol=1e-12, atol=1e-14)


class TestMultiplier:
    def test_zero_nonlinearity_gives_negative_mu(self):
        zero = from_callables(
            "null", lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        g = make_grid(2, 6.0, 400)
        u = sphere_retract(GridFunction(g, np.exp(-g.nodes**2)), 2.0)
        mu = multiplier(u, zero, 2.0)
        assert mu == pytest.approx(-grad_norm_sq(u) / 2.0, rel=1e-12)
        assert mu < 0

    def test_bubble_multiplier_near_zero(self):
        nl = builtin("critical_piecewise", 5)
        b = Bubble(5, 15.0)
        g = make_grid(5, 3000.0, 8001, stretch=2.0)
        u = GridFunction(g, b.profile(g.nodes))
        mu = multiplier(u, nl, mass(u))
        assert abs(mu) <= 1e-3 * grad_norm_sq(u) / mass(u)


class TestMinimize:
    def test_reproduces_soliton_oracle(self, solved):
        E = Soliton1D.energy_of_mass(8.0, 1.0)
        mu = Soliton1D.mu_for_mass(8.0, 1.0)
        assert solved.converged
        assert solved.energy == pytest.approx(E, rel=1e-3)
        assert solved.multiplier == pytest.approx(mu, rel=1e-3)
        assert solved.multiplier > 0

    def test_mass_constraint_held(self, solved):
        assert mass(solved.profile) == pytest.approx(1.0, rel=1e-12)
        assert solved.mass == 1.0

    def test_monotone_trace(self, solved):
        js = [step[0] for step in solved.trace]
        for a, b in zip(js, js[1:]):
            assert b <= a + 1e-12 * max(abs(a), 1.0)

    def test_stationarity_bundle(self, solved, soliton_grid):
        assert solved.pde_residual <= 1e-5
        T = grad_norm_sq(solved.profile)
        assert solved.pohozaev_residual <= 1e-6 * max(1.0, T)
        assert solved.boundary_tail < 1e-10

    def test_dilation_class_restart_invariance(self, solved, soliton_grid, p8):
        # restarting from a dilated copy of the minimizer changes nothing
        from nlsground import dilate

        shifted = sphere_retract(dilate(0.5, solved.profile), 1.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=500)
        rep = minimize(soliton_grid, p8, opts, start=shifted)
        assert rep.energy == pytest.approx(solved.energy, rel=1e-5)

    def test_rejects_a_start_off_the_sphere(self, solved, soliton_grid, p8):
        # the start is used as given, never retracted: one off S_m or on
        # another grid is an error
        opts = SolveOptions(mass=1.0, max_iters=5)
        off = GridFunction(soliton_grid, (1.0 + 1e-11) * solved.profile.values)
        with pytest.raises(ConfigurationError, match="its mass is 1.00000000002"):
            minimize(soliton_grid, p8, opts, start=off)
        with pytest.raises(ConfigurationError, match="m = 2.0"):
            minimize(soliton_grid, p8, SolveOptions(mass=2.0), start=solved.profile)
        other = make_grid(1, 30.0, 2001, stretch=60.0)
        with pytest.raises(ConfigurationError, match="the solve's grid"):
            minimize(other, p8, opts, start=solved.profile)

    def test_log_n2_positive_multiplier(self):
        nl = builtin("log_supercritical", 2)
        g = make_grid(2, 40.0, 1501, stretch=20.0)
        opts = SolveOptions(mass=4.0, grad_tol=1e-8, max_iters=1500)
        rep = minimize(g, nl, opts)
        assert rep.converged
        assert rep.multiplier > 0

    def test_log_n3_positive_multiplier(self):
        nl = builtin("log_supercritical", 3)
        g = make_grid(3, 60.0, 3001, stretch=150.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=1500)
        rep = minimize(g, nl, opts)
        assert rep.converged
        assert rep.multiplier > 0

    def test_gate_rejects_nonconforming(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.abs(t) ** 1.5 * t

        def F(t):
            t = np.asarray(t, dtype=float)
            return np.abs(t) ** 3.5 / 3.5

        # minimize checks no hypothesis (the command line gates f); for
        # this mass-subcritical f the projection itself reports the failure
        sub = from_callables("subcritical", f, F)
        g = make_grid(1, 10.0, 301)
        with pytest.raises(NonconformanceError):
            minimize(g, sub, SolveOptions(mass=1.0, max_iters=5))

    def test_option_validation(self):
        with pytest.raises(ConfigurationError):
            SolveOptions(mass=-1.0)
        # a budget below one iteration runs no descent step: bad input
        for bad in (0, -5):
            with pytest.raises(ConfigurationError, match="max_iters"):
                SolveOptions(mass=1.0, max_iters=bad)
        # replica i seeds its noise with seed + i
        with pytest.raises(ConfigurationError, match="seed must be non-negative, got -1"):
            SolveOptions(mass=1.0, seed=-1)
        # an infinite tolerance would pass every gradient gate at the start
        for bad in (0.0, -1e-8, math.inf, math.nan):
            with pytest.raises(ConfigurationError,
                               match=f"grad_tol must be positive and finite, got {bad}"):
                SolveOptions(mass=1.0, grad_tol=bad)


class TestFinishEndpoints:
    """The endpoint a solve reports on each of minimize's finish paths."""

    @pytest.fixture(scope="class")
    def grid(self):
        return make_grid(1, 30.0, 2001, stretch=60.0)

    def solve(self, grid, p8, max_iters):
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=max_iters)
        return opts, minimize(grid, p8, opts)

    @pytest.mark.parametrize("max_iters", [3, 9])
    def test_budget_exit_reports_raw_frame(self, grid, p8, max_iters):
        # a budget exit reports the last iterate at its own J, however
        # close to stationary the descent came
        _, rep = self.solve(grid, p8, max_iters)
        assert rep.termination == "budget" and not rep.converged
        assert rep.iterations == max_iters
        assert rep.profile is rep.iterate
        J = reduced_value(rep.profile, p8)
        assert rep.energy == pytest.approx(J, rel=1e-10, abs=0)
        assert rep.pde_residual > 1e-3

    @staticmethod
    def spy_certificates(monkeypatch):
        """The list of profiles the finish certifies, in order."""
        from nlsground import optimizer

        certified = []
        real = optimizer._certificate
        monkeypatch.setattr(optimizer, "_certificate",
                            lambda u, *a: certified.append(u) or real(u, *a))
        return certified

    def test_budget_exit_skips_newton_polish(self, grid, p8, monkeypatch):
        # the frame is reported as is: no Newton tail from the raw iterate,
        # and one certificate, the frame's
        from nlsground import optimizer

        calls = []
        polish = optimizer._newton_polish
        monkeypatch.setattr(optimizer, "_newton_polish",
                            lambda *a, **kw: calls.append("polish") or polish(*a, **kw))
        certified = self.spy_certificates(monkeypatch)
        _, rep = self.solve(grid, p8, 3)
        assert rep.termination == "budget" and not rep.converged
        assert calls == []
        assert certified == [rep.iterate]
        assert rep.newton_steps == 0
        assert rep.endpoint == "frame"
        assert rep.as_dict(with_trace=False)["newton_steps"] == 0

    def test_polished_endpoint_is_certified_twice(self, grid, p8, monkeypatch):
        # the materialized start, then the profile the polish stepped to
        certified = self.spy_certificates(monkeypatch)
        _, rep = self.solve(grid, p8, 2000)
        assert rep.termination != "budget" and rep.newton_steps >= 1
        assert rep.endpoint == "polished"
        assert len(certified) == 2 and certified[1] is rep.profile
        assert certified[0] is not rep.iterate

    def test_materialized_endpoint_is_certified_once(self, grid, p8, monkeypatch):
        # a polish that takes no step leaves the materialized start, whose
        # one certificate the report carries
        from nlsground import optimizer

        monkeypatch.setattr(optimizer, "_newton_polish", lambda u, nl, m, cert: (u, 0))
        certified = self.spy_certificates(monkeypatch)
        _, rep = self.solve(grid, p8, 2000)
        assert rep.termination != "budget" and rep.newton_steps == 0
        assert rep.endpoint == "materialized"
        assert rep.as_dict(with_trace=False)["endpoint"] == "materialized"
        assert certified == [rep.profile] and rep.profile is not rep.iterate
        assert rep.pde_residual == _certificate(rep.profile, p8, 1.0).pde

    def test_action_mismatch_reports_frame(self, monkeypatch):
        # log_sweep's cold m = 0.5 ends stationary, but the polish takes
        # no step from its materialized start, whose action (about 4387)
        # is more than 5 % below J (about 8184): the finish reports the
        # descent's frame, with one certificate more, the frame's
        from nlsground import optimizer

        steps = []
        polish = optimizer._newton_polish

        def spy(*args):
            out = polish(*args)
            steps.append(out[1])
            return out

        monkeypatch.setattr(optimizer, "_newton_polish", spy)
        certified = self.spy_certificates(monkeypatch)
        nl = builtin("log_supercritical", 2)
        grid = make_grid(2, 400.0, 4001, stretch=150.0)
        opts = SolveOptions(mass=0.5, grad_tol=1e-8, max_iters=800)
        rep = minimize(grid, nl, opts)
        assert rep.termination == "gradient" and not rep.converged
        assert rep.profile is rep.iterate
        J = reduced_value(rep.profile, nl)
        assert rep.energy == pytest.approx(J, rel=1e-10, abs=0)
        assert rep.newton_steps == 0
        assert rep.endpoint == "frame"
        assert steps == [0] and len(certified) == 2 and certified[-1] is rep.iterate

    def test_box_truncated_point_reports_frame(self):
        # log_sweep's chain: at m = 64 the box cuts the materialized
        # profile, whose action (about 1.04e-3, and 7.46e-4 after four
        # damped Newton steps) is far above J (about 6.31e-4); the 5 %
        # rule is relative at every level of J, so the frame is reported
        from nlsground.sweep import sweep

        nl = builtin("log_supercritical", 2)
        grid = make_grid(2, 400.0, 4001, stretch=150.0)
        opts = SolveOptions(mass=0.5, grad_tol=1e-8, max_iters=800)
        res = sweep(grid, nl, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0], opts)
        assert [rep.endpoint for rep in res.reports] == ["frame"] + ["polished"] * 6 + ["frame"]
        assert list(res.converged) == [False] * 3 + [True] * 4 + [False]
        rep = res.reports[-1]
        assert rep.termination == "gradient"
        assert rep.profile is rep.iterate and rep.newton_steps == 0
        assert rep.energy == rep.trace[-1][0]


class TestNewtonPolishFailures:
    """A failed linear solve ends the polish like a rejected trial: it
    returns the profile of its accepted steps, u itself after none."""

    @pytest.fixture
    def frozen(self):
        # a grid with zero flux coefficients and f = 0: mu = 0, so the
        # bordered system's Jacobian S + mu D - D f' is the zero matrix
        g = make_grid(1, 10.0, 65)
        object.__setattr__(g, "_flux_coef", np.zeros_like(g._flux_coef))
        u = GridFunction(g, np.exp(-g.nodes**2))
        return g, u

    def test_singular_jacobian_returns_start(self, frozen):
        from nlsground import optimizer

        g, u = frozen
        zero = from_callables("zero", lambda t: 0.0 * t, lambda t: 0.0 * t)
        m = mass(u)
        v, steps = optimizer._newton_polish(u, zero, m, _certificate(u, zero, m))
        assert steps == 0 and v is u

    def test_nonfinite_jacobian_returns_start(self, soliton_grid, p8):
        from nlsground import optimizer

        u = initial_profile(soliton_grid, 1.0)
        inf_slope = from_callables("inf", lambda t: np.where(t > 0.5, np.inf, 0.0 * t),
                                   lambda t: 0.0 * t)
        with np.errstate(invalid="ignore"):
            cert = _certificate(u, inf_slope, 1.0)
            v, steps = optimizer._newton_polish(u, inf_slope, 1.0, cert)
        assert steps == 0 and v is u

    def test_failed_solve_keeps_accepted_steps(self, soliton_grid, p8, monkeypatch):
        # the exact soliton, sampled: its polish takes two steps; a second
        # solve that raises keeps the first, and the finish reports it
        from nlsground import optimizer
        from nlsground.functional import project

        u = GridFunction(soliton_grid, Soliton1D(8.0, 1.0).profile(soliton_grid.nodes))
        m = mass(u)
        solve, calls = optimizer.symmetric_tridiagonal_solve, []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("singular")
            return solve(*args)

        monkeypatch.setattr(optimizer, "symmetric_tridiagonal_solve", second_fails)
        profile, E, converged, cert, steps, endpoint = optimizer._finish(
            p8, m, u, project(u, p8), True)
        assert len(calls) == 2
        assert steps == 1 and endpoint == "polished"
        assert cert.pde == _certificate(profile, p8, m).pde

    def test_other_errors_propagate(self, frozen, monkeypatch):
        from nlsground import optimizer

        def bad_call(*args):
            raise TypeError("bad call")

        monkeypatch.setattr(optimizer, "symmetric_tridiagonal_solve", bad_call)
        g, u = frozen
        zero = from_callables("zero", lambda t: 0.0 * t, lambda t: 0.0 * t)
        m = mass(u)
        with pytest.raises(TypeError, match="bad call"):
            optimizer._newton_polish(u, zero, m, _certificate(u, zero, m))


class TestNewtonPolishExit:
    """The polish counts its accepted steps and ends once its correction
    is round-off."""

    def test_converged_solves_count_their_steps(self, criterion2):
        _, reports = criterion2
        for rep in reports:
            assert rep.converged
            assert rep.newton_steps >= 1 and rep.endpoint == "polished"
            assert rep.as_dict(with_trace=False)["newton_steps"] == rep.newton_steps

    def test_rejected_first_trial_ends_the_polish(self, soliton_grid, p8, monkeypatch):
        # a trial that does not lower the residual ends the polish: with a
        # Laplacian that spoils every trial's residual, the first trial is
        # the only residual evaluation, and the start comes back unstepped
        from nlsground import optimizer

        u = initial_profile(soliton_grid, 1.0)
        cert = _certificate(u, p8, 1.0)
        laps = []

        def spoiled(gf):
            laps.append(gf)
            return GridFunction(gf.grid, neg_laplacian(gf).values + 1e6)

        monkeypatch.setattr(optimizer, "neg_laplacian", spoiled)
        v, steps = optimizer._newton_polish(u, p8, 1.0, cert)
        assert steps == 0 and v is u
        assert len(laps) == 1

    def test_round_off_correction_ends_the_polish(self, monkeypatch):
        # the log_sweep chain up to the warm m = 8, its first certified
        # point whose polish ends on a round-off correction (m = 4's ends
        # on rejected trials): a spy logs the polish's f calls ("f") and
        # the residual's Laplacians ("lap", one per residual evaluation)
        from dataclasses import replace

        from nlsground import optimizer
        from nlsground.sweep import sweep

        polishes = []
        real_polish, real_lap = optimizer._newton_polish, optimizer.neg_laplacian

        def spy(u, nl, m, cert):
            log = []

            def f(t, inner=nl.f):
                log.append("f")
                return inner(t)

            def lap(gf):
                log.append("lap")
                return real_lap(gf)

            with mock.patch.object(optimizer, "neg_laplacian", lap):
                out = real_polish(u, replace(nl, f=f), m, cert)
            polishes.append((log, out))
            return out

        monkeypatch.setattr(optimizer, "_newton_polish", spy)
        nl = builtin("log_supercritical", 2)
        grid = make_grid(2, 400.0, 4001, stretch=150.0)
        opts = SolveOptions(mass=0.5, grad_tol=1e-8, max_iters=800)
        res = sweep(grid, nl, [0.5, 1.0, 2.0, 4.0, 8.0], opts)
        rep = res.reports[-1]
        assert res.chains[-1] == "warm"
        log, (_, steps) = polishes[-1]
        assert steps == rep.newton_steps >= 1
        # the start's mu and residual come from its certificate, so each
        # step is an f' pair and one trial, a Laplacian and an f call;
        # the last f' pair gave a round-off correction, and no trial
        # followed it
        assert log == ["f", "f", "lap", "f"] * steps + ["f", "f"]
        # the certified report still meets the residual bundle
        assert rep.converged
        assert rep.pde_residual <= optimizer._PDE_TOL
        assert rep.pohozaev_residual <= optimizer._POHOZAEV_TOL * max(
            1.0, grad_norm_sq(rep.profile))


class TestTermination:
    """The exit that ended the descent, recorded in SolveReport.termination."""

    @pytest.mark.parametrize("name, N, params, R, stretch, m, max_iters, max_projections", [
        # J is converged to its last bit by iteration ~12 while the
        # gradient still lies just above its gate of 4.0e-7; the round-off
        # regime's unit steps carry it to the gate (measured: 13
        # iterations, 14 projections)
        ("log_supercritical", 2, {}, 400.0, 150.0, 1.0, 15, 16),
        # the cold replica of the warm/cold sweep test at m = 1.3: its
        # slope sits at 4-6 ulps of J, so its Armijo margin is far below
        # one ulp (measured: 11 iterations, 12 projections)
        ("pure_power", 1, {"p": 8.0}, 40.0, 60.0, 1.3, 13, 14),
    ], ids=["log_m1", "pure_power_m1.3"])
    def test_roundoff_exit_ends_the_stall(self, name, N, params, R, stretch, m,
                                          max_iters, max_projections):
        nl = builtin(name, N, **params)
        g = make_grid(N, R, 2001, stretch=stretch)
        opts = SolveOptions(mass=m, grad_tol=1e-8, max_iters=800)
        rep = minimize(g, nl, opts)
        assert rep.termination == "gradient"
        assert rep.iterations <= max_iters
        assert rep.projections <= max_projections
        assert rep.as_dict()["termination"] == "gradient"

    def test_progressing_descent_meets_gradient_gate(self, criterion2):
        # criterion 2's solve: in its seed-1 replica J is flat to the last
        # bit from iteration 8 while the gradient still falls to the gate
        # at iteration 11, so the round-off exit must not end it early
        # (that replica ties seed 0 in energy to the last bit, so it need
        # not be the best report)
        _, reports = criterion2
        assert reports[1].seed == 1
        assert reports[1].termination == "gradient"
        assert reports[1].iterations == 11
        exits = {"gradient", "roundoff", "step_collapse", "budget"}
        assert all(r.termination in exits for r in reports)

    def test_step_collapse_is_a_stationary_exit(self, solved, soliton_grid, p8, monkeypatch):
        # an Armijo margin no trial can meet: backtracking tries the unit
        # step and 53 halvings, down to 2^-53, and the next falls below 1e-16;
        # from the certified soliton the finish then materializes and
        # polishes the iterate, as after any stationary exit
        from nlsground import optimizer

        monkeypatch.setattr(optimizer, "_DECREASE", math.inf)
        starts = []
        polish = optimizer._newton_polish
        monkeypatch.setattr(optimizer, "_newton_polish",
                            lambda u, *a: starts.append(u) or polish(u, *a))
        opts = SolveOptions(mass=1.0, grad_tol=1e-300, max_iters=50)
        rep = minimize(soliton_grid, p8, opts, start=solved.profile)
        assert rep.termination == "step_collapse"
        assert rep.iterations == 1
        assert rep.line_search_trials == 54
        assert rep.projections == 1 + rep.line_search_trials
        assert len(starts) == 1 and starts[0] is not rep.iterate
        assert rep.converged and rep.profile is not rep.iterate
        assert rep.newton_steps >= 1


class TestRoundoffRegime:
    """Once the unit step's Armijo margin is at most one ulp of J, step
    makes one trial, the capped unit step, judged by the shape gradient."""

    @pytest.fixture(scope="class")
    def engine(self, p8):
        from nlsground import optimizer

        grid = make_grid(1, 30.0, 2001, stretch=60.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8)
        engine = optimizer._Descent(grid, p8, opts)
        u = initial_profile(grid, 1.0, seed=2, noise=0.1)
        fiber, g, gshape, gn, gen = engine.gradient_state(u)
        engine.s_hint = fiber.s_star
        dvec, slope = engine.direction(u, g, gshape, gen)
        return engine, u, fiber.value, gn, dvec, slope

    def test_rejected_trial_leaves_the_descent_as_it_was(self, engine):
        engine, u, J, gn, dvec, slope = engine
        trials, hint, tau = engine.trials, engine.s_hint, engine.tau
        # no trial can lower the gradient below 0
        assert engine.step(u, J, dvec, slope, gn=0.0) is None
        assert engine.trials == trials + 1
        assert (engine.s_hint, engine.tau) == (hint, tau)

    def test_accepted_trial_is_the_capped_unit_step(self, engine):
        engine, u, J, gn, dvec, slope = engine
        grid = engine.grid
        t = min(1.0, 0.5 * grid.norm(u.values) / grid.norm(dvec))
        cand, state = engine.step(u, J, dvec, slope, gn=math.inf)
        want = sphere_retract(GridFunction(grid, u.values - t * dvec), 1.0)
        assert np.array_equal(cand.values, want.values)
        assert engine.tau == t
        # the trial's gradient state, handed on for the next iteration
        again = engine.gradient_state(cand, state[0])
        assert state[3] == again[3]
        assert np.array_equal(state[2].values, again[2].values)

    def test_accepted_armijo_trial_hands_on_its_gradient_state(self, engine):
        # outside the round-off regime step backtracks from the warm-started
        # step; the accepted trial's state is the one run adopts next
        engine, u, J, gn, dvec, slope = engine
        grid = engine.grid
        trials = engine.trials
        cand, state = engine.step(u, J, dvec, slope)
        t = engine.tau
        want = sphere_retract(GridFunction(grid, u.values - t * dvec), 1.0)
        assert np.array_equal(cand.values, want.values)
        fiber = state[0]
        assert fiber.value <= J - _DECREASE * t * slope
        again = engine.gradient_state(cand, fiber)
        assert state[3] == again[3]
        for a, b in ((state[1], again[1]), (state[2], again[2])):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(state[4], again[4])
        # one projection per trial, none for the state
        assert engine.projections - engine.trials == 1
        assert engine.trials > trials

    def test_cold_log_point_reaches_the_gate(self, monkeypatch):
        # log_sweep's cold m = 0.5 point: from iteration 11 J is flat to
        # its last bit while the gradient, 2.9e-3, is far above its gate of
        # 8.2e-5, so only the shape gradient can judge the steps there
        # (measured: 14 iterations, 15 projections)
        from nlsground import optimizer

        calls = []
        step = optimizer._Descent.step

        def spy(engine, u, J, dvec, slope, gn=None):
            trials = engine.trials
            out = step(engine, u, J, dvec, slope, gn)
            regime = optimizer._DECREASE * slope <= np.finfo(float).eps * abs(J)
            calls.append((regime, gn is not None, engine.trials - trials))
            return out

        monkeypatch.setattr(optimizer._Descent, "step", spy)
        nl = builtin("log_supercritical", 2)
        g = make_grid(2, 400.0, 4001, stretch=150.0)
        opts = SolveOptions(mass=0.5, grad_tol=1e-8, max_iters=800)
        rep = minimize(g, nl, opts)
        assert rep.termination == "gradient"
        assert rep.iterations <= 16
        assert rep.projections <= 20
        assert len(calls) == rep.iterations
        in_regime = [trials for regime, judged, trials in calls if regime]
        assert in_regime, "the descent never entered the round-off regime"
        # step judges by the gradient exactly in the regime, with one trial
        assert all(regime == judged for regime, judged, _ in calls)
        assert in_regime == [1] * len(in_regime)

    def test_unit_step_that_keeps_the_gradient_ends_roundoff(self, criterion2):
        # criterion 2's seed-2 replica: in the regime, the unit step at
        # iteration 20 does not lower the shape gradient, so the descent
        # ends there; the Newton polish still certifies its endpoint
        _, reports = criterion2
        rep = reports[2]
        assert rep.termination == "roundoff"
        assert rep.iterations == 20
        assert rep.converged


class TestProjectionReuse:
    """Each iterate is projected once: the accepted trial's projection is
    the next gradient state's, and the finish projects nothing."""

    def test_one_projection_per_trial(self, criterion2):
        # a replica's only projection outside the line search is the
        # initial profile's
        _, reports = criterion2
        for rep in reports:
            assert rep.line_search_trials >= rep.iterations
            assert rep.projections == 1 + rep.line_search_trials
            data = rep.as_dict(with_trace=False)
            assert data["projections"] == rep.projections
            assert data["line_search_trials"] == rep.line_search_trials

    def test_bracket_counter_is_the_bracket_calls(self, criterion2_run):
        _, reports, brackets = criterion2_run
        assert [rep.bracket_evaluations for rep in reports] == brackets
        for rep in reports:
            assert rep.as_dict(with_trace=False)["bracket_evaluations"] == rep.bracket_evaluations

    @pytest.mark.parametrize("max_iters", [3, 9], ids=["raw_frame", "late_budget"])
    def test_counts_every_projection(self, p8, monkeypatch, max_iters):
        from nlsground import optimizer

        from nlsground import functional

        calls = []
        project = optimizer.project
        monkeypatch.setattr(optimizer, "project",
                            lambda *a, **kw: calls.append(1) or project(*a, **kw))
        grid = make_grid(1, 30.0, 2001, stretch=60.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=max_iters)
        with mock.patch.object(functional, "_fiber_bracket",
                               wraps=functional._fiber_bracket) as bracket:
            rep = minimize(grid, p8, opts)
        assert rep.termination == "budget"
        assert rep.projections == len(calls) == 1 + rep.line_search_trials
        assert rep.bracket_evaluations == bracket.call_count


class TestFinishArithmetic:
    """The finish's certificate keeps the bits of the separate evaluations."""

    SPECS = [
        ("pure_power", 1, {"p": 8.0}),
        ("log_supercritical", 2, {}),
        ("critical_piecewise", 5, {}),
        ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}),
        ("user", 1, {}),
    ]

    @pytest.mark.parametrize("name, N, params", SPECS, ids=[s[0] for s in SPECS])
    def test_diagnostics_match_separate_evaluations(self, name, N, params):
        if name == "user":
            nl = from_callables("user", compile_expression("abs(t)^6 * t"),
                                compile_expression("abs(t)^8 / 8"), params={"N": N})
        else:
            nl = builtin(name, N, **params)
        g = make_grid(N, 20.0, 2001, stretch=10.0)
        m = 1.7
        u = initial_profile(g, m, seed=3, noise=0.2, width=1.3)
        mu = multiplier(u, nl, m)
        res = neg_laplacian(u).values + mu * u.values - nl.f(u.values)
        pde = g.norm(res) / max(g.norm(u.values), 1e-300)
        poh = abs(pohozaev(u, nl))
        violation = max(pde / _PDE_TOL, poh / (_POHOZAEV_TOL * max(1.0, grad_norm_sq(u))))
        cert = _certificate(u, nl, m)
        assert np.array_equal(cert.residual, res)
        assert (cert.mu, cert.pde, cert.poh, cert.energy, cert.violation) == (
            mu, pde, poh, action(u, nl), violation)

    @pytest.mark.parametrize("grid", [
        make_grid(1, 30.0, 2001),
        make_grid(2, 400.0, 4001, stretch=150.0),
    ], ids=["uniform", "stretched"])
    def test_dilation_generator_is_numpy_gradient(self, grid, p8):
        # make_grid's spacings differ in their last bits, uniform or not,
        # so np.gradient takes its non-uniform branch, whose interior the
        # stencil is; the generator equals (N/2) u + r np.gradient(u, r)
        # with node K-1 zeroed, ends included
        nodes = grid.nodes
        assert not np.all(np.diff(nodes) == nodes[1])
        engine = _Descent(grid, p8, SolveOptions(mass=1.7))
        a, b, c = engine._stencil
        f = np.random.default_rng(11).standard_normal(nodes.size)
        assert np.array_equal(a * f[:-2] + b * f[1:-1] + c * f[2:],
                              np.gradient(f, nodes)[1:-1])
        u = initial_profile(grid, 1.7, seed=3, noise=0.2, width=1.3)
        gen = 0.5 * grid.dimension * u.values + nodes * np.gradient(u.values, nodes)
        gen[-1] = 0.0
        gen = tangent_project(GridFunction(grid, gen), u, 1.7).values
        assert np.array_equal(engine._dilation_generator(u), gen / grid.norm(gen))


class TestMultistart:
    def test_returns_min_energy(self, p8, soliton_grid):
        opts = SolveOptions(mass=1.0, grad_tol=1e-7, max_iters=800)
        best, reports = multistart_minimize(soliton_grid, p8, opts, restarts=3)
        assert len(reports) == 3
        converged = [r for r in reports if r.converged]
        assert best.energy == min(r.energy for r in (converged or reports))

    def test_report_serialization(self, solved):
        data = solved.as_dict()
        assert set(data) >= {
            "energy", "multiplier", "pde_residual", "pohozaev_residual",
            "boundary_tail", "iterations", "converged", "trace",
        }
        # the descent iterate stays out of report.json
        assert "iterate" not in data
        slim = solved.as_dict(with_trace=False)
        assert "trace" not in slim
        assert isinstance(json.dumps(solved.as_dict()), str)
