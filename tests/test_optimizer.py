import math

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
from nlsground.functional import action, reduced_value
from nlsground.grid import ConfigurationError
from nlsground.nonlinearity import from_callables
from nlsground.oracles import Bubble, Soliton1D


@pytest.fixture(scope="module")
def p8():
    return builtin("pure_power", 1, p=8.0)


@pytest.fixture(scope="module")
def soliton_grid():
    return make_grid(1, 30.0, 4001, stretch=60.0)


@pytest.fixture(scope="module")
def solved(p8, soliton_grid):
    opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=2000,
                        check_hypotheses=False)
    return minimize(soliton_grid, p8, opts)


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
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=500,
                            custom_profile=shifted,
                            check_hypotheses=False)
        rep = minimize(soliton_grid, p8, opts)
        assert rep.energy == pytest.approx(solved.energy, rel=1e-5)

    def test_log_n2_positive_multiplier(self):
        nl = builtin("log_supercritical", 2)
        g = make_grid(2, 40.0, 1501, stretch=20.0)
        opts = SolveOptions(mass=4.0, grad_tol=1e-8, max_iters=1500,
                            check_hypotheses=False)
        rep = minimize(g, nl, opts)
        assert rep.converged
        assert rep.multiplier > 0

    def test_log_n3_positive_multiplier(self):
        nl = builtin("log_supercritical", 3)
        g = make_grid(3, 60.0, 3001, stretch=150.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=1500,
                            check_hypotheses=False)
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

        sub = from_callables("subcritical", f, F)
        g = make_grid(1, 10.0, 301)
        opts = SolveOptions(mass=1.0)
        with pytest.raises(NonconformanceError):
            minimize(g, sub, opts)
        # the override flag skips the gate; the projection itself then
        # reports the failure
        opts2 = SolveOptions(mass=1.0, check_hypotheses=False, max_iters=5)
        with pytest.raises(NonconformanceError):
            minimize(g, sub, opts2)

    def test_gate_cache_ignores_object_identity(self, monkeypatch):
        # a freed spec's id can be handed to a new spec with the same name
        # and params; force that collision and require separate verdicts
        from nlsground import optimizer

        monkeypatch.setattr(optimizer, "id", lambda obj: 0, raising=False)

        def spec(power):
            def f(t):
                t = np.asarray(t, dtype=float)
                return np.abs(t) ** power * t

            def F(t):
                t = np.asarray(t, dtype=float)
                return np.abs(t) ** (power + 2.0) / (power + 2.0)

            return from_callables("gate_probe", f, F)

        optimizer._gate(spec(6.0), 1)
        with pytest.raises(NonconformanceError):
            optimizer._gate(spec(1.5), 1)

    def test_option_validation(self):
        with pytest.raises(ConfigurationError):
            SolveOptions(mass=-1.0)


class TestFinishEndpoints:
    """The endpoint a solve reports on each of minimize's finish paths."""

    @pytest.fixture(scope="class")
    def grid(self):
        return make_grid(1, 30.0, 2001, stretch=60.0)

    def solve(self, grid, p8, max_iters):
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=max_iters,
                            check_hypotheses=False)
        return opts, minimize(grid, p8, opts)

    def test_budget_exit_reports_raw_frame(self, grid, p8):
        # the Newton tail from an early iterate fails the bundle, so the
        # report is the last iterate at its own J
        _, rep = self.solve(grid, p8, 3)
        assert not rep.converged
        assert rep.iterations == 3
        J = reduced_value(rep.profile, p8)
        assert rep.energy == pytest.approx(J, rel=1e-10, abs=0)
        assert rep.pde_residual > 1e-3

    def test_limit_cycle_promotion_materializes(self, grid, p8):
        # a near-stationary best iterate is handed to the stationary finish,
        # which reports a materialized (or Newton-polished) profile
        opts, rep = self.solve(grid, p8, 9)
        assert rep.iterations == 9
        assert rep.energy == action(rep.profile, p8)
        assert rep.pde_residual <= opts.pde_tol


class TestMultistart:
    def test_returns_min_energy(self, p8, soliton_grid):
        opts = SolveOptions(mass=1.0, grad_tol=1e-7, max_iters=800,
                            check_hypotheses=False)
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
        slim = solved.as_dict(with_trace=False)
        assert "trace" not in slim
        assert isinstance(solved.to_json(), str)
