"""Riemannian gradient descent for J on the mass sphere.

The ground-state energy is the infimum of the reduced functional
J(u) = I(s(u) * u) over S_m = {mass(u) = m}: the fiber projection turns
the mountain-pass geometry of I into a plain minimization.  Descent runs
on J with

  * the weighted-L^2 tangent projection  g -> g - (<g,u>_w / m) u,
  * retraction by mass rescaling  u -> sqrt(m / mass(u)) u,
  * monotone Armijo backtracking along preconditioned quasi-Newton
    directions, warm-started at twice the previously accepted step;
    once the unit step's Armijo margin is below J's round-off, one
    unit-step trial per iteration, kept iff it lowers the norm of the
    shape gradient (J cannot judge it there).

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

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .grid import (
    ConfigurationError,
    GridFunction,
    RadialGrid,
    grad_norm_sq,
    mass,
    neg_laplacian,
    solve_shifted,
    symmetric_tridiagonal_solve,
)
from .nonlinearity import NonlinearitySpec, check_conditions
from .functional import (
    FiberResult,
    NonconformanceError,
    dilate,
    project,
    reduced_gradient,
)

_GATE = ("f0", "f1", "f2", "f3", "f4")
# Armijo backtracking factor and sufficient-decrease constant
_BACKTRACK = 0.5
_DECREASE = 1e-4
# the residual bundle a stationary endpoint must meet to be certified
_PDE_TOL = 1e-5
_POHOZAEV_TOL = 1e-6
# bordered Newton steps in _newton_polish
_POLISH_ITERS = 8
# _newton_polish stops before a trial once its correction is at most
# _POLISH_RTOL ||v||: over the polish steps of the acceptance, optimizer,
# sweep and CLI tests, corrections up to 7.2e-14 ||v|| lowered the
# residual at most 1.16-fold (round-off), those from 1.7e-13 ||v|| up by
# as much as 6e3-fold
_POLISH_RTOL = 1e-13


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
    check_hypotheses: bool = True

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ConfigurationError(f"mass must be positive and finite, got {self.mass}")
        if not self.grad_tol > 0:
            raise ConfigurationError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be at least 1, got {self.max_iters}")


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
    termination: str  # the descent's exit, see _Descent.run
    iterate: GridFunction  # the descent's endpoint, as handed to _finish
    seed: int = 0
    mass: float = 0.0
    projections: int = 0  # project calls made by this solve
    line_search_trials: int = 0
    bracket_evaluations: int = 0  # bracket calls made by those projections
    newton_steps: int = 0  # steps of the polish that gave profile, else 0

    def as_dict(self, with_trace: bool = True) -> dict:
        """Every field but the two profiles, with the trace last if asked."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("profile", "iterate", "trace")}
        if with_trace:
            d["trace"] = [[float(a), float(b), float(c)] for a, b, c in self.trace]
        return d


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
            "pass check_hypotheses=False (--force on the command line) to override"
        )


class _Certificate(NamedTuple):
    mu: float
    residual: np.ndarray  # -Delta u + mu u - f(u)
    pde: float
    poh: float
    energy: float  # I(u)
    violation: float  # of the residual bundle; <= 1 certifies u


def _certificate(u: GridFunction, nl: NonlinearitySpec, m: float) -> _Certificate:
    """u's residual bundle and action from one f/F evaluation, one
    ||grad u||^2 and one Laplacian, with the arithmetic of multiplier,
    pohozaev and action: the PDE residual relative to ||u||, |P(u)|, and
    the violation max(pde / _PDE_TOL, |P| / (_POHOZAEV_TOL max(1, T)))."""
    g = u.grid
    fv, Fv = nl.f_and_F(u.values)
    fu = fv * u.values
    T = grad_norm_sq(u)
    mu = (g.integrate(fu) - T) / m
    res = neg_laplacian(u).values + mu * u.values - fv
    pde = g.norm(res) / max(g.norm(u.values), 1e-300)
    poh = abs(T - 0.5 * g.dimension * g.integrate(fu - 2.0 * Fv))
    violation = max(pde / _PDE_TOL, poh / (_POHOZAEV_TOL * max(1.0, T)))
    return _Certificate(mu, res, pde, poh, 0.5 * T - g.integrate(Fv), violation)


def _newton_polish(u: GridFunction, nl: NonlinearitySpec, m: float,
                   cert: _Certificate) -> tuple[GridFunction, int] | None:
    """Bordered Newton on { -Delta u + mu u = f(u), mass(u) = m }, started
    from mu and the residual of u's certificate cert.

    Called only from an excellent initial guess (the descent minimizer),
    so it stays in the local basin.  f' is taken by centered differences
    since nonlinearities are only assumed continuous.  Each step solves
    the symmetric tridiagonal Jacobian for two right-hand sides with one
    LAPACK dgtsv call (grid.symmetric_tridiagonal_solve), then tries the
    correction dv at t = min(1, 0.2 ||v|| / ||dv||) and up to five
    halvings, accepting the first trial that lowers the residual norm.

    The iteration stops after _POLISH_ITERS steps, when no trial lowers
    the residual, when the residual is at most 1e-13 (1 + |mu|) ||v||,
    or, before any trial, when ||dv|| <= _POLISH_RTOL ||v||: a
    correction that small is round-off and cannot lower the residual
    (see _POLISH_RTOL).  Returns (profile, accepted steps), or None when
    the Jacobian is singular or its solve is not finite.
    """
    grid = u.grid
    v = u.values.copy()
    n = grid.size - 1
    w = grid.weights
    fc = grid._flux_coef
    off = -fc[: n - 1]
    mu, res = cert.mu, cert.residual
    best = grid.norm(res)
    steps = 0
    for _ in range(_POLISH_ITERS):
        delta = 1e-7 * (1.0 + np.abs(v))
        fp = (nl.f(v + delta) - nl.f(v - delta)) / (2.0 * delta)
        # symmetric tridiagonal system D^{-1}(S + mu D - D fp) on the
        # non-Dirichlet nodes, scaled by D
        diag = fc[:n].copy()
        diag[1:] += fc[: n - 1]
        diag += (mu - fp[:n]) * w[:n]
        G = res[:n] * w[:n]
        c0 = m - float(np.dot(w, v * v))
        # one factorization for both right-hand sides
        rhs = np.column_stack([-G, w[:n] * v[:n]])
        try:
            x1, x2 = symmetric_tridiagonal_solve(diag, off, rhs).T
        except (np.linalg.LinAlgError, ValueError):
            return None
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
            return None
        ux2 = 2.0 * float(np.dot(w[:n], v[:n] * x2))
        if ux2 == 0.0:
            return None
        dmu = (2.0 * float(np.dot(w[:n], v[:n] * x1)) - c0) / ux2
        dv = x1 - dmu * x2
        v_norm, dv_norm = grid.norm(v), grid.norm(np.concatenate([dv, [0.0]]))
        if dv_norm <= _POLISH_RTOL * v_norm:
            break
        t = min(1.0, 0.2 * v_norm / max(dv_norm, 1e-300))
        for _ in range(6):
            v_new = v.copy()
            v_new[:n] += t * dv
            mu_new = mu + t * dmu
            res_new = (neg_laplacian(GridFunction(grid, v_new)).values
                       + mu_new * v_new - nl.f(v_new))
            r_new = grid.norm(res_new)
            if r_new < best:
                v, mu, res, best = v_new, mu_new, res_new, r_new
                break
            t *= 0.5
        else:
            break
        steps += 1
        if best <= 1e-13 * (1.0 + abs(mu)) * grid.norm(v):
            break
    return sphere_retract(GridFunction(grid, v), m), steps


def _node_gradient(nodes: np.ndarray):
    """A function of f that returns np.gradient(f, nodes) bit for bit.

    numpy's difference coefficients for these nodes are computed once:
    second-order central differences inside (the uniform-spacing form
    when every node gap is equal, as np.gradient picks it), one-sided
    first-order differences at the two ends.
    """
    dx = np.diff(nodes)
    dx0, dxn = dx[0], dx[-1]
    if (dx == dx[0]).all():
        two_dx = 2.0 * dx[0]

        def interior(f):
            return (f[2:] - f[:-2]) / two_dx
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))

        def interior(f):
            return a * f[:-2] + b * f[1:-1] + c * f[2:]

    def derivative(f):
        out = np.empty_like(f)
        out[1:-1] = interior(f)
        out[0] = (f[1] - f[0]) / dx0
        out[-1] = (f[-1] - f[-2]) / dxn
        return out

    return derivative


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
        This does not stop the concentration: a cold descent on
        f6prime_example (N = 3, R = 600, K = 2001, stretch 30, m = 10)
        still ends on a one-node spike with J = 2.83, below the
        mountain-pass floor 4.27.  Only the residual bundle (PDE
        residual 6.8e11) keeps that point from being certified.

    A small two-loop L-BFGS history absorbs the remaining curvature of
    the nonlinear term; pairs are transported between tangent spaces by
    plain projection.

    Every projection, line-search trials included, starts from the
    current hint with project's one root tolerance (see run for its
    reuse); projections, trials and bracket_evaluations count the solve's
    project calls, line-search trials and the bracket evaluations of
    those projections.  Where J's round-off decides the Armijo test, a
    step is judged by the shape gradient instead (see run and step).
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
        self.projections = 0
        self.bracket_evaluations = 0
        self.trials = 0
        self._derivative = _node_gradient(grid.nodes)

    def _project(self, u):
        self.projections += 1
        fiber = project(u, self.nl, s_hint=self.s_hint)
        self.bracket_evaluations += fiber.evaluations
        return fiber

    def _dilation_generator(self, u):
        du = self._derivative(u.values)
        gen = 0.5 * self.grid.dimension * u.values + self.grid.nodes * du
        gen[-1] = 0.0
        gt = tangent_project(GridFunction(self.grid, gen), u, self.opts.mass)
        n = self.grid.norm(gt.values)
        return gt.values / n if n > 0 else gt.values

    def _strip(self, vec, gen):
        return vec - self.grid.inner(vec, gen) * gen

    def gradient_state(self, u, fiber=None):
        """The state (fiber, g, gshape, gn, gen) at u; fiber, if given, is
        u's projection from the current hint (the accepted line-search
        trial's).  The hint is left as it is: run moves it to s(u) when
        it adopts the state."""
        if fiber is None:
            fiber = self._project(u)
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

    def step(self, u, J, dvec, slope, gn=None):
        """Armijo backtracking from u along -dvec, or, with gn given (the
        round-off regime, see run), one trial judged by the shape gradient.

        Returns (cand, state) for the accepted trial, state being
        gradient_state(cand, fiber) from the trial's projection fiber, for
        run to adopt; or None.  Armijo backtracking gives up when the step
        collapses below floating-point resolution.  In the round-off
        regime J cannot judge a step, so the only trial is the capped
        unit step, accepted iff its shape-gradient norm is below gn.
        """
        # warm-start the line search near the previously accepted step and
        # cap it so a single move cannot tunnel out of the current basin
        dn = self.grid.norm(dvec)
        un = self.grid.norm(u.values)
        t = 1.0 if gn is not None else min(1.0, max(2.0 * self.tau, 1e-3))
        if dn > 0:
            t = min(t, 0.5 * un / dn)
        while t >= 1e-16:
            cand = sphere_retract(
                GridFunction(self.grid, u.values - t * dvec), self.opts.mass
            )
            self.trials += 1
            fiber = self._project(cand)
            if not math.isfinite(fiber.value):
                raise DiagnosticError(
                    f"non-finite J during line search at iteration {self.it}",
                    iterate=cand,
                )
            if gn is None and not fiber.value <= J - _DECREASE * t * slope:
                t *= _BACKTRACK
                continue
            state = self.gradient_state(cand, fiber)
            if gn is not None and not state[3] < gn:
                return None
            self.tau = t
            return cand, state
        return None

    def run(self, u):
        """Descend from u; returns (u, fiber), fiber being u's projection,
        and sets termination.

        The loop has three stationary exits and the budget, named in
        self.termination:

          * "gradient": the shape gradient meets the gate;
          * "roundoff": in the round-off regime, the unit step did not
            lower the shape gradient;
          * "step_collapse": backtracking fell below floating-point
            resolution;
          * "budget": max_iters spent, not stationary.

        The round-off regime is an iteration whose Armijo margin of a
        unit step, _DECREASE times the search direction's slope, is at
        most one ulp of J (eps |J|): every Armijo test at t <= 1 is then
        decided by J's round-off, so step judges its one trial by the
        shape gradient instead, and a rejected trial ends the descent at
        the current iterate.

        Each iterate is projected once: the accepted trial's gradient
        state, built on its projection, becomes the next iteration's, and
        the iterate handed back carries its projection, so the finish
        does not project again.
        """
        self.termination = "budget"
        prev_vals = prev_grad = None
        state = self.gradient_state(u)
        while self.it < self.opts.max_iters:
            fiber, g, gshape, gn, gen = state
            self.s_hint = fiber.s_star
            J = fiber.value
            self.trace.append((J, gn, self.tau))
            if gn <= self.opts.grad_tol * (1.0 + abs(J)):
                self.termination = "gradient"
                break
            if prev_vals is not None:
                self.push_pair(u.values - prev_vals, gshape.values - prev_grad)
            prev_vals, prev_grad = u.values.copy(), gshape.values.copy()
            dvec, slope = self.direction(u, g, gshape, gen)
            roundoff = _DECREASE * slope <= np.finfo(float).eps * abs(J)
            accepted = self.step(u, J, dvec, slope, gn if roundoff else None)
            self.it += 1
            if accepted is None:
                # J's round-off decides the Armijo test and the unit step
                # does not lower the gradient, or the step collapsed below
                # floating-point resolution: the iterate is numerically
                # stationary; the residual bundle decides convergence
                self.termination = "roundoff" if roundoff else "step_collapse"
                break
            u, state = accepted
        return u, state[0]


def _finish(nl: NonlinearitySpec, m: float, u: GridFunction,
            fiber: FiberResult, stationary: bool):
    """Pick the endpoint a solve reports from the descent's endpoint u and
    u's projection fiber, which the descent hands over, so the finish
    projects nothing.

    Returns (profile, energy, converged, certificate, newton_steps),
    certificate being profile's and newton_steps the steps the Newton
    polish accepted when its profile is the one returned, else 0.  A
    descent that did not end stationary reports its frame: the iterate u
    itself at its own J, never converged.  That J bounds the minimum of the
    discrete problem from above, not E_m itself (discretization error
    moves the discrete level either way); materializing such a profile
    through interpolation would produce garbage.

    Stationary u is materialized onto the Pohozaev manifold as
    dilate(s(u), u) (P vanishes there to root-solve accuracy), and a
    bordered Newton tail from it and its certificate trades the O(h^2)
    gap between the two discrete stationarity notions into the Pohozaev
    budget while zeroing the PDE residual.  Each candidate is certified
    once; the one with the smaller bundle violation is kept if its
    action agrees with J (a large mismatch means the profile was at grid
    scale and the interpolation destroyed it); violation <= 1 then
    decides convergence.  A rejected candidate falls back to the frame.
    """
    J = fiber.value
    if stationary:
        start = sphere_retract(dilate(fiber.s_star, u), m)
        cert = _certificate(start, nl, m)
        candidates = [(start, 0, cert)]
        polished = _newton_polish(start, nl, m, cert)
        if polished is not None:
            v, steps = polished
            candidates.append((v, steps, _certificate(v, nl, m)))
        v, steps, cert = min(candidates, key=lambda c: c[2].violation)
        E = cert.energy
        if math.isfinite(E) and E > 0.0 and abs(E - J) <= 0.05 * max(abs(J), 1.0):
            return v, E, cert.violation <= 1.0, cert, steps
    return u, J, False, _certificate(u, nl, m), 0


def minimize(grid: RadialGrid, nl: NonlinearitySpec, opts: SolveOptions) -> SolveReport:
    """Single descent run; see module docstring for the scheme and
    _finish for the endpoint the report certifies."""
    if opts.check_hypotheses:
        _gate(nl, grid.dimension)
    m = opts.mass
    u = initial_profile(grid, m, seed=opts.seed, noise=opts.noise,
                        width=opts.init_width, custom=opts.custom_profile)
    engine = _Descent(grid, nl, opts)
    u, fiber = engine.run(u)
    profile, energy, converged, cert, newton_steps = _finish(
        nl, m, u, fiber, engine.termination != "budget")
    return SolveReport(
        profile=profile,
        energy=energy,
        multiplier=cert.mu,
        pde_residual=cert.pde,
        pohozaev_residual=cert.poh,
        boundary_tail=abs(float(profile.values[-2])),
        iterations=engine.it,
        trace=engine.trace,
        converged=converged,
        termination=engine.termination,
        iterate=u,
        seed=opts.seed,
        mass=m,
        projections=engine.projections,
        line_search_trials=engine.trials,
        bracket_evaluations=engine.bracket_evaluations,
        newton_steps=newton_steps,
    )


_WIDTH_CYCLE = (1.0, 0.5, 2.0, 0.25, 4.0, 0.125, 8.0)


def multistart_minimize(grid: RadialGrid, nl: NonlinearitySpec, opts: SolveOptions,
                        restarts: int = 5):
    """Run seeded descent replicas and keep the lowest converged energy.

    Replicas differ in initial width and noise seed.  Returns
    (best_report, all_reports); best prefers converged runs.  The
    hypothesis gate runs once, before the first replica.
    """
    if restarts < 1:
        raise ConfigurationError(f"restarts must be at least 1, got {restarts}")
    if opts.check_hypotheses:
        _gate(nl, grid.dimension)
        opts = replace(opts, check_hypotheses=False)
    replicas = []
    for i in range(restarts):
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
