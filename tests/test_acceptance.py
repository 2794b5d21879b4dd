"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion so the battery can be
audited from the pytest log:

  1. exact critical-bubble energy level S^{N/2}/N at N = 5
  2. 1D pure-power ground state against the sech-soliton oracle
  3. structure of m -> E_m for the logarithmic nonlinearity at N = 2
  4. E_inf above the mountain-pass floor under the f6' example at N = 3
  5. fiber-map property suite over randomized profiles
  6. reduced-gradient correctness against finite differences
  7. condition-checker classification of the shipped nonlinearities
  8. positive multipliers at every converged report
  9. second-order convergence under grid doubling
"""

import math
import time
import warnings
import zlib

import numpy as np
import pytest

from nlsground import (
    GridFunction,
    SolveOptions,
    action,
    builtin,
    check_conditions,
    dilate,
    fiber_action,
    fiber_pohozaev,
    grad_norm_sq,
    make_grid,
    mass,
    mountain_pass_floor,
    multiplier,
    pohozaev,
    project,
    reduced_gradient,
    reduced_value,
    sphere_retract,
    sweep,
    tangent_project,
)
from nlsground.cli import EXIT_NOT_CONVERGED, EXIT_OK, main
from nlsground.oracles import Bubble, Soliton1D

warnings.filterwarnings("ignore")

_RESULTS = []


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    _RESULTS.append(line)
    assert ok, line


def smooth_profiles(grid, count, seed, mass_range):
    gen = np.random.default_rng(seed)
    out = []
    r = grid.nodes
    for _ in range(count):
        sigma = gen.uniform(0.9, 1.7)
        base = np.exp(-((r / sigma) ** 2))
        k = int(gen.integers(0, 3))
        if k:
            base = base * (1.0 + 0.25 * gen.uniform(-1, 1)
                           * np.cos(k * math.pi * r / (5.0 * sigma)))
        base[-1] = 0.0
        u = sphere_retract(GridFunction(grid, base), gen.uniform(*mass_range))
        out.append(u)
    return out


@pytest.fixture(scope="module")
def converged_reports():
    """Converged SolveReports accumulated across the suite (criterion 8)."""
    return []


class TestCriterion1BubbleEnergy:
    def test_bubble_exact_level(self, converged_reports):
        t0 = time.time()
        nl = builtin("critical_piecewise", 5)
        b = Bubble(5, 15.0)  # eps = N(N-2): the largest profile below 1
        grid = make_grid(5, 3000.0, 16001, stretch=2.0)
        u = GridFunction(grid, b.profile(grid.nodes))
        level = b.grad_norm_sq / 5.0
        a = action(u, nl)
        T = grad_norm_sq(u)
        P = abs(pohozaev(u, nl))
        mu = multiplier(u, nl, mass(u))
        dt = time.time() - t0
        ok = (
            abs(a / level - 1.0) <= 5e-3
            and P <= 1e-3 * T
            and abs(mu) <= 1e-3 * T / mass(u)
            and dt <= 10.0
        )
        report(1, ok,
               f"action rel err {abs(a / level - 1):.2e} (<=5e-3), "
               f"|P|/T {P / T:.2e} (<=1e-3), |mu| m/T {abs(mu) * mass(u) / T:.2e} "
               f"(<=1e-3), runtime {dt:.1f}s (<=10s)")


class TestCriterion2SolitonSolve:
    def test_cmd_solve_reproduces_oracle(self, tmp_path, converged_reports):
        t0 = time.time()
        out = tmp_path / "c2"
        code = main([
            "solve", "--builtin", "pure_power", "--param", "p=8",
            "--dim", "1", "--mass", "1.0", "--radius", "30",
            "--points", "4001", "--stretch", "60", "--restarts", "3",
            "--seed", "0", "--out", str(out),
        ])
        import json

        rep = json.loads((out / "report.json").read_text())
        grid = make_grid(1, 30.0, 4001, stretch=60.0)
        profile = GridFunction.from_csv(out / "profile.csv", grid)
        E_oracle = Soliton1D.energy_of_mass(8.0, 1.0)
        mu_oracle = Soliton1D.mu_for_mass(8.0, 1.0)
        w = Soliton1D(8.0, mu_oracle).profile(grid.nodes)
        prof_err = grid.norm(profile.values - w) / grid.norm(w)
        dt = time.time() - t0
        if rep["converged"]:
            converged_reports.append(rep)
        ok = (
            code == EXIT_OK
            and abs(rep["energy"] / E_oracle - 1.0) <= 1e-3
            and abs(rep["multiplier"] / mu_oracle - 1.0) <= 1e-3
            and prof_err <= 1e-3
            and dt <= 60.0
        )
        report(2, ok,
               f"exit {code}, E rel {abs(rep['energy'] / E_oracle - 1):.2e}, "
               f"mu rel {abs(rep['multiplier'] / mu_oracle - 1):.2e}, "
               f"profile L2 rel {prof_err:.2e} (all <=1e-3), runtime {dt:.0f}s (<=60s)")


@pytest.fixture(scope="module")
def log_sweep():
    nl = builtin("log_supercritical", 2)
    grid = make_grid(2, 400.0, 4001, stretch=150.0)
    masses = [2.0**k for k in range(-4, 7)]
    opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=800)
    t0 = time.time()
    result = sweep(grid, nl, masses, opts)
    return result, time.time() - t0


class TestCriterion3EnergyMapStructure:
    def test_energy_map_structure(self, log_sweep, converged_reports):
        result, dt = log_sweep
        e = result.energies
        v = result.verdicts
        slope = v["small_mass_blowup"]["slope"]
        halving = max(e[-2:]) <= 0.5 * min(e[:2])
        for rep, c in zip(result.reports, result.converged):
            if c:
                converged_reports.append(rep.as_dict(with_trace=False))
        ok = (
            bool(v["all_positive"])
            and v["nonincreasing"]["verdict"]
            and v["nonincreasing"]["max_violation"] <= 1e-4
            and v["strictly_decreasing"]["verdict"]
            and v["strictly_decreasing"]["min_gap"] >= 1e-6
            and slope is not None and slope <= -0.1
            and halving
            and dt <= 900.0
        )
        report(3, ok,
               f"positive={v['all_positive']}, nonincreasing (worst "
               f"{v['nonincreasing']['max_violation']:.1e}), strict gaps "
               f"(min {v['strictly_decreasing']['min_gap']:.1e}), slope "
               f"{slope:.2f} (<=-0.1), halving={halving}, runtime {dt:.0f}s "
               f"(<=900s)")


class TestCriterion4MountainPassFloor:
    def test_floor_under_f6prime(self, converged_reports):
        nl = builtin("f6prime_example", 3, beta=1.0, beta_N=1.0 / 3.0)
        grid = make_grid(3, 600.0, 4001, stretch=30.0)
        masses = list(np.geomspace(1.0, 1000.0, 7))
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=1500)
        result = sweep(grid, nl, masses, opts)
        floor = mountain_pass_floor(grid, nl)
        e = result.energies
        e_inf = result.verdicts["large_mass_limit"]["estimate"]
        above_floor = bool(np.all(e >= floor * (1.0 - 1e-3)))
        for rep, c in zip(result.reports, result.converged):
            if c:
                converged_reports.append(rep.as_dict(with_trace=False))
        ok = above_floor and e_inf >= 0.5 * floor
        report(4, ok,
               f"floor {floor:.4f}, min E {float(np.min(e)):.4f} "
               f"(>= floor-1e-3 rel: {above_floor}), E_inf {e_inf:.4f} "
               f"(>= floor/2 {0.5 * floor:.4f})")


class TestCriterion5FiberProperties:
    CASES = [
        ("pure_power", 1, {"p": 8.0}, (0.5, 2.0)),
        ("log_supercritical", 2, {}, (1.5, 4.0)),
        ("critical_piecewise", 5, {}, (0.5, 2.0)),
        ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}, (0.5, 2.0)),
    ]

    def test_fiber_suite(self):
        failures = []
        count = 100
        for name, N, kw, mass_range in self.CASES:
            nl = builtin(name, N, **kw)
            # dilation invariance and the cocycle law at 1e-5 are limited
            # by the linear resampling error of dilate (O(h^2),
            # amplified by the cubic T-sensitivity of J) and by the
            # Dirichlet cut of the widened tail, hence the roomy box
            grid = make_grid(N, 24.0, 24001)
            # a per-name seed that, unlike hash(), is the same in every process
            for i, u in enumerate(smooth_profiles(grid, count, seed=zlib.crc32(name.encode()),
                                                  mass_range=mass_range)):
                label = f"{name}#{i}"
                T = grad_norm_sq(u)
                fr = project(u, nl)
                # the scan is centered on the root, which for some profiles
                # lies beyond s = 5
                ss = fr.s_star + np.linspace(-5.0, 5.0, 21)
                brackets = np.array(
                    [fiber_pohozaev(u, nl, s) / math.exp(2.0 * s) for s in ss]
                )
                if not np.all(np.diff(brackets) < 0):
                    failures.append(f"{label}: bracket not strictly decreasing")
                # the bracket at s* itself is often exactly 0, so count the
                # crossings from positive to non-positive, not np.sign's
                # three-valued changes
                if np.count_nonzero(np.diff(brackets > 0.0)) != 1:
                    failures.append(f"{label}: sign changes != 1 within 5 of s*")
                vals = np.array([fiber_action(u, nl, s) for s in ss])
                if not np.all(fr.value >= vals - 1e-12 * np.maximum(np.abs(vals), 1)):
                    failures.append(f"{label}: fiber value not maximal")
                low = fiber_action(u, nl, -20.0)
                if not (0.0 < low < 1e-8 * (1.0 + T)):
                    failures.append(f"{label}: I(-20 * u) = {low}")
                if not fiber_action(u, nl, 10.0) < 0.0:
                    failures.append(f"{label}: I(+10 * u) not negative")
                for s0 in (-0.5, 0.5):
                    moved = dilate(s0, u)
                    if abs(reduced_value(moved, nl) / fr.value - 1.0) > 1e-5:
                        failures.append(f"{label}: J not dilation-invariant @s={s0}")
                    shift = project(moved, nl).s_star
                    if abs(shift - (fr.s_star - s0)) > 1e-5:
                        failures.append(f"{label}: cocycle off @s={s0}")
        ok = not failures
        report(5, ok,
               f"4 builtins x {count} profiles, 21-point bracket scans around s*, "
               f"limits at s=-20/+10, dilation invariance and cocycle at 1e-5"
               + ("" if ok else f"; failures: {failures[:5]}"))


class TestCriterion6GradientCorrectness:
    def test_directional_derivatives(self):
        cases = [
            (builtin("pure_power", 1, p=8.0), make_grid(1, 16.0, 2001)),
            (builtin("log_supercritical", 3), make_grid(3, 16.0, 2001)),
        ]
        gen = np.random.default_rng(1234)
        worst = 0.0
        pairs = 0
        for nl, grid in cases:
            for u in smooth_profiles(grid, 25, seed=77, mass_range=(0.8, 2.5)):
                fiber = project(u, nl)
                grad = reduced_gradient(u, nl, fiber)
                coef = gen.standard_normal(4)
                phi = sum(
                    c * np.cos(k * math.pi * grid.nodes / grid.radius)
                    for k, c in enumerate(coef)
                ) * np.exp(-((grid.nodes / 3.0) ** 2))
                phi[-1] = 0.0
                phi = tangent_project(GridFunction(grid, phi), u, mass(u)).values
                eps = 1e-6
                up = GridFunction(grid, u.values + eps * phi)
                um = GridFunction(grid, u.values - eps * phi)
                fd = (reduced_value(up, nl) - reduced_value(um, nl)) / (2 * eps)
                ip = grid.inner(grad.values, phi)
                worst = max(worst, abs(fd / ip - 1.0))
                pairs += 1
        ok = worst <= 1e-5 and pairs == 50
        report(6, ok, f"{pairs} tangent pairs, worst rel deviation {worst:.2e} (<=1e-5)")


class TestCriterion7CheckerClassification:
    def test_classification(self):
        # the log example satisfies f5/f6 vacuously at N = 2; at N >= 3
        # its f6 quotient has the finite limit 2*, measured honestly by
        # the checker (see test_nonlinearity for the N = 3 verdicts)
        log2 = check_conditions(builtin("log_supercritical", 2), 2)
        log_ok = all(log2.verdict(h) == "pass"
                     for h in ("f0", "f1", "f2", "f3", "f4", "f5", "f6"))
        cp = check_conditions(builtin("critical_piecewise", 5), 5)
        cp_ok = (cp.verdict("f5") == "fail"
                 and all(cp.verdict(h) == "pass" for h in ("f0", "f1", "f2", "f3", "f4")))
        f6p = check_conditions(
            builtin("f6prime_example", 3, beta=1.0, beta_N=1.0 / 3.0), 3
        )
        f6p_ok = f6p.verdict("f6p") == "pass" and f6p.verdict("f6") == "fail"
        ok = log_ok and cp_ok and f6p_ok
        report(7, ok,
               f"log_supercritical f0-f6 pass: {log_ok}; critical_piecewise "
               f"fails exactly f5: {cp_ok}; f6prime passes f6' and fails f6: "
               f"{f6p_ok}")


class TestCriterion8MultiplierPositivity:
    def test_converged_reports_have_positive_multiplier(self, converged_reports):
        # add one more solve per dimension class to the pool
        nl = builtin("pure_power", 1, p=8.0)
        grid = make_grid(1, 30.0, 4001, stretch=60.0)
        from nlsground import minimize

        opts = SolveOptions(mass=2.0, grad_tol=1e-8, max_iters=2000)
        rep = minimize(grid, nl, opts)
        if rep.converged:
            converged_reports.append(rep.as_dict(with_trace=False))
        nl2 = builtin("log_supercritical", 2)
        grid2 = make_grid(2, 60.0, 2001, stretch=30.0)
        rep2 = minimize(grid2, nl2, SolveOptions(mass=4.0, grad_tol=1e-8, max_iters=1500))
        if rep2.converged:
            converged_reports.append(rep2.as_dict(with_trace=False))
        mus = [r["multiplier"] for r in converged_reports]
        ok = len(mus) >= 5 and all(mu > 0 for mu in mus)
        report(8, ok,
               f"{len(mus)} converged reports, multipliers all positive: "
               f"{all(mu > 0 for mu in mus)} (min {min(mus):.3g})")


class TestCriterion9GridConvergence:
    def test_doubling_K_reduces_errors(self):
        # bubble level at the criterion-1 configuration
        nl5 = builtin("critical_piecewise", 5)
        b = Bubble(5, 15.0)
        errs_bubble = []
        for K in (16001, 32001):
            grid = make_grid(5, 3000.0, K, stretch=2.0)
            u = GridFunction(grid, b.profile(grid.nodes))
            errs_bubble.append(abs(action(u, nl5) / b.action - 1.0))
        ratio_bubble = errs_bubble[0] / errs_bubble[1]

        # solved soliton energy at the criterion-2 configuration
        from nlsground import minimize

        nl1 = builtin("pure_power", 1, p=8.0)
        E_oracle = Soliton1D.energy_of_mass(8.0, 1.0)
        errs_soliton = []
        for K in (2001, 4001):
            grid = make_grid(1, 30.0, K, stretch=60.0)
            opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=2000)
            rep = minimize(grid, nl1, opts)
            errs_soliton.append(abs(rep.energy / E_oracle - 1.0))
        ratio_soliton = errs_soliton[0] / errs_soliton[1]

        ok = ratio_bubble >= 3.0 and ratio_soliton >= 3.0
        report(9, ok,
               f"bubble action error {errs_bubble[0]:.2e} -> {errs_bubble[1]:.2e} "
               f"(x{ratio_bubble:.1f}), soliton energy error {errs_soliton[0]:.2e} "
               f"-> {errs_soliton[1]:.2e} (x{ratio_soliton:.1f}); both >= 3")


def test_zz_summary():
    print()
    for line in _RESULTS:
        print(line)
    assert len(_RESULTS) == 9
