"""Riemannian gradient descent for J on the mass sphere.

The ground-state energy is the infimum of the reduced functional
J(u) = I(s(u) * u) over S_m = {mass(u) = m}: the fiber projection turns
the mountain-pass geometry of I into a plain minimization.  Descent runs
on J with

  * the weighted-L^2 tangent projection  g -> g - (<g,u>_w / m) u,
  * retraction by mass rescaling  u -> sqrt(m / mass(u)) u,
  * monotone Armijo backtracking along preconditioned quasi-Newton
    directions, warm-started at twice the previously accepted step.

J never depends on the iterate's dilation class, so the iterate's scale
is free to drift; at convergence the minimizer is materialized once as
dilate(s(u), u), which lands on the Pohozaev manifold where the PDE
residual, the multiplier

    mu = ( int f(u) u - ||grad u||^2 ) / m,

and the virial identity P(u) = 0 can all be checked independently.

Convergence to a local minimizer is accepted; ground-state status is
certified only relative to multistart (multistart_minimize).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    ConfigurationError,
    GridFunction,
    RadialGrid,
    grad_norm_sq,
    mass,
    neg_laplacian,
    solve_shifted,
)
from .nonlinearity import NonlinearitySpec, check_conditions
from .functional import NonconformanceError, dilate, action, pohozaev, project, reduced_gradient

_GATE = ("f0", "f1", "f2", "f3", "f4")
# Armijo backtracking factor and sufficient-decrease constant
_BACKTRACK = 0.5
_DECREASE = 1e-4


class DiagnosticError(RuntimeError):
    """Line search produced a non-finite energy; carries the iterate."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


@dataclass
class SolveOptions:
    mass: float
    max_iters: int = 4000
    grad_tol: float = 1e-7
    seed: int = 0
    noise: float = 0.0
    init_width: float = 1.0
    custom_profile: GridFunction | None = None  # start here instead of a gaussian
    pde_tol: float = 1e-5
    pohozaev_tol: float = 1e-6
    check_hypotheses: bool = True

    def __post_init__(self):
        if not self.mass > 0:
            raise ConfigurationError(f"mass must be positive, got {self.mass}")
        if not self.grad_tol > 0:
            raise ConfigurationError("grad_tol must be positive")


@dataclass
class SolveReport:
    profile: GridFunction
    energy: float
    multiplier: float
    pde_residual: float
    pohozaev_residual: float
    boundary_tail: float
    iterations: int
    trace: list
    converged: bool
    seed: int = 0
    mass: float = 0.0

    def as_dict(self, with_trace: bool = True) -> dict:
        d = {
            "energy": self.energy,
            "multiplier": self.multiplier,
            "pde_residual": self.pde_residual,
            "pohozaev_residual": self.pohozaev_residual,
            "boundary_tail": self.boundary_tail,
            "iterations": self.iterations,
            "converged": self.converged,
            "seed": self.seed,
            "mass": self.mass,
        }
        if with_trace:
            d["trace"] = [[float(a), float(b), float(c)] for a, b, c in self.trace]
        return d

    def to_json(self, **kw) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, **kw)


def initial_profile(grid: RadialGrid, m: float, seed: int = 0,
                    noise: float = 0.0, width: float = 1.0,
                    custom: GridFunction | None = None) -> GridFunction:
    """Build a mass-m starting profile.

    The custom profile if one is given, else exp(-(r/width)^2), rescaled
    to mass m; optional smooth multiplicative noise keyed by seed.
    """
    if custom is not None:
        vals = custom.values.copy()
    else:
        vals = np.exp(-((grid.nodes / width) ** 2))
    vals[-1] = 0.0
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        bumps = rng.standard_normal(6)
        pert = sum(
            c * np.cos((k + 1) * math.pi * grid.nodes / grid.radius)
            for k, c in enumerate(bumps)
        ) / math.sqrt(6.0)
        vals = vals * (1.0 + noise * pert)
        vals[-1] = 0.0
    u = GridFunction(grid, vals)
    return sphere_retract(u, m)


def sphere_retract(u: GridFunction, m: float) -> GridFunction:
    """Rescale onto the mass sphere: sqrt(m / mass(u)) u."""
    mu = mass(u)
    if mu <= 0.0:
        raise ValueError("cannot retract the zero profile onto the sphere")
    return GridFunction(u.grid, math.sqrt(m / mu) * u.values)


def tangent_project(g: GridFunction, u: GridFunction, m: float) -> GridFunction:
    """Project onto the tangent space of S_m at u: g - (<g,u>_w / m) u."""
    coef = u.grid.inner(g.values, u.values) / m
    return GridFunction(u.grid, g.values - coef * u.values)


def multiplier(u: GridFunction, nl: NonlinearitySpec, m: float) -> float:
    """Lagrange multiplier mu = ( int f(u) u - ||grad u||^2 ) / m."""
    fu = u.grid.integrate(nl.f(u.values) * u.values)
    return (fu - grad_norm_sq(u)) / m


def _gate(nl: NonlinearitySpec, N: int):
    report = check_conditions(nl, N)
    bad = [h for h in _GATE if report.verdict(h) == "fail"]
    if bad:
        raise NonconformanceError(
            f"nonlinearity {nl.name!r} fails {', '.join(bad)}; "
            "pass check_hypotheses=False to override"
        )


def _diagnostics(u: GridFunction, nl: NonlinearitySpec, m: float):
    mu = multiplier(u, nl, m)
    res = neg_laplacian(u).values + mu * u.values - nl.f(u.values)
    pde = u.grid.norm(res) / max(u.grid.norm(u.values), 1e-300)
    poh = abs(pohozaev(u, nl))
    return mu, pde, poh


def _newton_polish(grid: RadialGrid, nl: NonlinearitySpec, u: GridFunction,
                   m: float, iters: int = 8) -> GridFunction | None:
    """Bordered Newton on { -Delta u + mu u = f(u), mass(u) = m }.

    Called only from an excellent initial guess (the descent minimizer),
    so it stays in the local basin and drives the PDE residual to
    round-off.  f' is taken by centered differences since nonlinearities
    are only assumed continuous.  Returns None when the iteration fails
    to contract.
    """
    from scipy.linalg import solve_banded

    v = u.values.copy()
    n = grid.size - 1
    w = grid.weights
    fc = grid._flux_coef

    def residual(vals, mu):
        gf = GridFunction(grid, vals)
        return neg_laplacian(gf).values + mu * vals - nl.f(vals)

    mu = multiplier(u, nl, m)
    best = grid.norm(residual(v, mu))
    for _ in range(iters):
        delta = 1e-7 * (1.0 + np.abs(v))
        fp = (nl.f(v + delta) - nl.f(v - delta)) / (2.0 * delta)
        # symmetric tridiagonal system D^{-1}(S + mu D - D fp) on the
        # non-Dirichlet nodes, assembled in banded form
        diag = fc[:n].copy()
        diag[1:] += fc[: n - 1]
        diag += (mu - fp[:n]) * w[:n]
        off = np.zeros(n)
        off[1:] = -fc[: n - 1]
        ab = np.vstack([off, diag, np.concatenate([off[1:], [0.0]])])
        G = residual(v, mu)[:n] * w[:n]
        c0 = m - float(np.dot(w, v * v))
        try:
            x1 = solve_banded((1, 1), ab, -G)
            x2 = solve_banded((1, 1), ab, w[:n] * v[:n])
        except Exception:
            return None
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
            return None
        ux2 = 2.0 * float(np.dot(w[:n], v[:n] * x2))
        if ux2 == 0.0:
            return None
        dmu = (2.0 * float(np.dot(w[:n], v[:n] * x1)) - c0) / ux2
        dv = x1 - dmu * x2
        step_cap = 0.2 * grid.norm(v) / max(grid.norm(np.concatenate([dv, [0.0]])), 1e-300)
        t = min(1.0, step_cap)
        improved = False
        for _ in range(6):
            v_new = v.copy()
            v_new[:n] += t * dv
            mu_new = mu + t * dmu
            r_new = grid.norm(residual(v_new, mu_new))
            if r_new < best:
                v, mu, best = v_new, mu_new, r_new
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        if best <= 1e-13 * (1.0 + abs(mu)) * grid.norm(v):
            break
    out = sphere_retract(GridFunction(grid, v), m)
    return out


class _Descent:
    """Preconditioned L-BFGS engine of minimize's descent.

    Two structural safeguards make the mass-supercritical landscape safe
    to descend:

      * The base metric is the Sobolev-gradient preconditioner
        (c I + e^{2s} (-Delta))^{-1}: the plain L^2 gradient flow is
        stiff (stepsize capped by the smallest grid cell), the
        preconditioned one takes O(1) steps.

      * J is exactly dilation-invariant in the continuum, so the discrete
        landscape has a near-flat valley along the dilation generator
        (N/2) u + r u' whose O(h^2) tilt leads to sub-grid concentration
        (a few-node spike with artificially low discrete J).  Search
        directions are therefore orthogonalized against that generator
        and stationarity is measured on the shape gradient; the dilation
        class is fixed once at the end by materializing dilate(s(u), u).

    A small two-loop L-BFGS history absorbs the remaining curvature of
    the nonlinear term; pairs are transported between tangent spaces by
    plain projection.  If the shape gradient still blows up past 30x its
    running best, the iterate reverts to the best point seen and the
    history is dropped.
    """

    _MEMORY = 8

    def __init__(self, grid, nl, opts):
        self.grid = grid
        self.nl = nl
        self.opts = opts
        self.tau = 1.0
        self.s_hint = 0.0
        self.trace = []
        self.it = 0
        self.pairs = []  # (s_vec, y_vec, 1/<y,s>_w)

    def _dilation_generator(self, u):
        du = np.gradient(u.values, self.grid.nodes)
        gen = 0.5 * self.grid.dimension * u.values + self.grid.nodes * du
        gen[-1] = 0.0
        gt = tangent_project(GridFunction(self.grid, gen), u, self.opts.mass)
        n = self.grid.norm(gt.values)
        return gt.values / n if n > 0 else gt.values

    def _strip(self, vec, gen):
        return vec - self.grid.inner(vec, gen) * gen

    def gradient_state(self, u):
        fiber = project(u, self.nl, s_hint=self.s_hint)
        self.s_hint = fiber.s_star
        g = reduced_gradient(u, self.nl, fiber)
        gt = tangent_project(g, u, self.opts.mass)
        gen = self._dilation_generator(u)
        shape = self._strip(gt.values, gen)
        return fiber, g, GridFunction(self.grid, shape), self.grid.norm(shape), gen

    def _base_metric(self, u, g, q):
        beta = math.exp(2.0 * self.s_hint)
        mu_hat = -self.grid.inner(g.values, u.values) / self.opts.mass
        c = beta + abs(mu_hat)
        return solve_shifted(self.grid, c, beta, q)

    def direction(self, u, g, gshape, gen):
        def post(vec):
            t = tangent_project(GridFunction(self.grid, vec), u, self.opts.mass).values
            return self._strip(t, gen)

        q = gshape.values.copy()
        alphas = []
        for s_vec, y_vec, rho in reversed(self.pairs):
            a = rho * self.grid.inner(s_vec, q)
            q -= a * y_vec
            alphas.append(a)
        r = self._base_metric(u, g, q)
        for (s_vec, y_vec, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * self.grid.inner(y_vec, r)
            r += s_vec * (a - b)
        r = post(r)
        slope = self.grid.inner(gshape.values, r)
        if not (slope > 0 and np.all(np.isfinite(r))):
            self.pairs.clear()
            r = post(self._base_metric(u, g, gshape.values))
            slope = self.grid.inner(gshape.values, r)
            if not (slope > 0 and np.all(np.isfinite(r))):
                return gshape.values, self.grid.inner(gshape.values, gshape.values)
        return r, slope

    def push_pair(self, du, dg):
        ys = self.grid.inner(dg, du)
        if ys > 1e-12 * self.grid.norm(dg) * self.grid.norm(du):
            self.pairs.append((du, dg, 1.0 / ys))
            if len(self.pairs) > self._MEMORY:
                self.pairs.pop(0)

    def step(self, u, J, dvec, slope):
        # warm-start the line search near the previously accepted step and
        # cap it so a single move cannot tunnel out of the current basin
        dn = self.grid.norm(dvec)
        un = self.grid.norm(u.values)
        t = min(1.0, max(2.0 * self.tau, 1e-3))
        if dn > 0:
            t = min(t, 0.5 * un / dn)
        while t >= 1e-16:
            cand = sphere_retract(
                GridFunction(self.grid, u.values - t * dvec), self.opts.mass
            )
            Jc = project(cand, self.nl, s_hint=self.s_hint, width=1e-11).value
            if not math.isfinite(Jc):
                raise DiagnosticError(
                    f"non-finite J during line search at iteration {self.it}",
                    iterate=cand,
                )
            if Jc <= J - _DECREASE * t * slope:
                self.tau = t
                return cand
            t *= _BACKTRACK
        return None

    def run(self, u, budget):
        """Descend from u; returns (u, stationary).

        The loop has four exits: the gradient gate (stationary), a limit
        cycle (no new lowest gradient for 100 iterations while the best
        one is already small), a step collapse (stationary) and the
        budget.  A non-stationary exit whose lowest-gradient iterate
        (best_gn, best_u) is quasi-stationary hands that iterate back as
        stationary, so a run that limit-cycles near the minimizer still
        reaches the stationary finish.
        """
        stationary = False
        prev_vals = prev_grad = None
        self.best_gn, self.best_u, self.best_J = math.inf, u, math.inf
        since_best = 0
        while self.it < budget:
            fiber, g, gshape, gn, gen = self.gradient_state(u)
            J = fiber.value
            self.trace.append((J, gn, self.tau))
            if gn <= self.opts.grad_tol * (1.0 + abs(J)):
                stationary = True
                break
            if since_best > 100 and self.best_gn <= 1e-3 * (1.0 + abs(J)):
                # limit cycle around the minimizer
                break
            if gn < self.best_gn:
                self.best_gn, self.best_u, self.best_J = gn, u, J
                since_best = 0
            elif gn > 30.0 * self.best_gn and self.pairs:
                # quasi-Newton wandered off along a soft mode: restart
                # from the best point seen with a clean history
                u = self.best_u
                self.pairs.clear()
                prev_vals = prev_grad = None
                self.it += 1
                since_best += 1
                continue
            else:
                since_best += 1
            if prev_vals is not None:
                self.push_pair(u.values - prev_vals, gshape.values - prev_grad)
            prev_vals, prev_grad = u.values.copy(), gshape.values.copy()
            dvec, slope = self.direction(u, g, gshape, gen)
            cand = self.step(u, J, dvec, slope)
            self.it += 1
            if cand is None:
                # step collapsed below floating-point resolution: the
                # iterate is numerically stationary; the residual bundle
                # decides convergence
                stationary = True
                break
            u = cand
        if not stationary and self.best_gn <= 1e-4 * (1.0 + abs(self.best_J)):
            return self.best_u, True
        return u, stationary


def _bundle_ok(u: GridFunction, pde: float, poh: float, opts: SolveOptions) -> bool:
    """The stationarity bundle: PDE residual and scaled Pohozaev residual."""
    return pde <= opts.pde_tol and poh <= opts.pohozaev_tol * max(1.0, grad_norm_sq(u))


def _finish(grid: RadialGrid, nl: NonlinearitySpec, opts: SolveOptions,
            u: GridFunction, stationary: bool, s_hint: float):
    """Pick the endpoint a solve reports.

    Returns (profile, energy, converged, (mu, pde, poh)).  The fallback is
    the frame: the descent iterate u itself at its own J, never
    converged.  J is an honest, always positive upper bound for E_m,
    whereas materializing an under-resolved profile through
    interpolation produces garbage.

    Stationary u is materialized onto the Pohozaev manifold as
    dilate(s(u), u) (P vanishes there to root-solve accuracy), and a
    bordered Newton tail from it trades the O(h^2) gap between the two
    discrete stationarity notions into the Pohozaev budget while zeroing
    the PDE residual.  The candidate with the smaller bundle violation is
    kept if its action agrees with J (a large mismatch means the profile
    was at grid scale and the interpolation destroyed it); the bundle
    then decides convergence.

    After the budget ran out, a Newton tail from the raw iterate
    sometimes still lands on the discrete solution (soft near-critical
    modes slow the first-order phase down without moving the iterate far
    from the basin); it is kept only if the bundle holds and its action
    is at most 1.05 J.
    """
    m = opts.mass
    fiber = project(u, nl, s_hint=s_hint)
    J = fiber.value
    start = u
    if stationary and abs(fiber.s_star) > 1e-14:
        start = sphere_retract(dilate(fiber.s_star, u), m)
    candidates = [start] if stationary else []
    polished = _newton_polish(grid, nl, start, m)
    if polished is not None:
        candidates.append(polished)
    checked = [(v, _diagnostics(v, nl, m)) for v in candidates]

    def violation(item):
        v, (_, pde, poh) = item
        return max(pde / opts.pde_tol,
                   poh / (opts.pohozaev_tol * max(1.0, grad_norm_sq(v))))

    if checked:
        v, diag = min(checked, key=violation)
        energy = action(v, nl)
        ok = _bundle_ok(v, diag[1], diag[2], opts)
        if stationary:
            keep = abs(energy - J) <= 0.05 * max(abs(J), 1.0)
        else:
            keep = ok and energy <= J * 1.05
        if math.isfinite(energy) and energy > 0.0 and keep:
            return v, energy, ok, diag
    return u, J, False, _diagnostics(u, nl, m)


def minimize(grid: RadialGrid, nl: NonlinearitySpec, opts: SolveOptions) -> SolveReport:
    """Single descent run; see module docstring for the scheme and
    _finish for the endpoint the report certifies."""
    if opts.check_hypotheses:
        _gate(nl, grid.dimension)
    m = opts.mass
    u = initial_profile(grid, m, seed=opts.seed, noise=opts.noise,
                        width=opts.init_width, custom=opts.custom_profile)
    engine = _Descent(grid, nl, opts)
    u, stationary = engine.run(u, opts.max_iters)
    profile, energy, converged, (mu, pde, poh) = _finish(
        grid, nl, opts, u, stationary, engine.s_hint)
    return SolveReport(
        profile=profile,
        energy=energy,
        multiplier=mu,
        pde_residual=pde,
        pohozaev_residual=poh,
        boundary_tail=abs(float(profile.values[-2])),
        iterations=engine.it,
        trace=engine.trace,
        converged=converged,
        seed=opts.seed,
        mass=m,
    )


_WIDTH_CYCLE = (1.0, 0.5, 2.0, 0.25, 4.0, 0.125, 8.0)


def multistart_minimize(grid: RadialGrid, nl: NonlinearitySpec, opts: SolveOptions,
                        restarts: int = 5):
    """Run seeded descent replicas and keep the lowest converged energy.

    Replicas differ in initial width and noise seed.  Returns
    (best_report, all_reports); best prefers converged runs.
    """
    replicas = []
    for i in range(max(restarts, 1)):
        replicas.append(replace(
            opts,
            seed=opts.seed + i,
            noise=opts.noise if i == 0 else max(opts.noise, 0.1),
            init_width=opts.init_width * _WIDTH_CYCLE[i % len(_WIDTH_CYCLE)],
        ))
    reports = [minimize(grid, nl, ro) for ro in replicas]
    converged = [r for r in reports if r.converged]
    pool = converged if converged else reports
    best = min(pool, key=lambda r: r.energy)
    return best, reports
