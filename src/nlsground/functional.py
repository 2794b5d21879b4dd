"""Action, Pohozaev functional, dilation fiber map, and the reduced
functional J.

For a profile u and the mass-preserving dilation
(s * u)(x) = e^{Ns/2} u(e^s x):

    I(u)      = 1/2 ||grad u||^2 - int F(u)
    P(u)      = ||grad u||^2 - (N/2) int F_tilde(u)
    I(s * u)  = 1/2 e^{2s} ||grad u||^2 - e^{-Ns} int F(e^{Ns/2} u)
    d/ds I(s * u) = P(s * u)
                  = e^{2s} [ ||grad u||^2
                             - (N/2) e^{-(N+2)s} int F_tilde(e^{Ns/2} u) ]

The bracket in the last line equals
||grad u||^2 - (N/2) int g(e^{Ns/2} u) |u|^{2+4/N}, so it is strictly
decreasing in s whenever g is strictly monotone away from 0 (hypothesis
f4), and s -> P(s * u) has exactly one sign change: the unique Pohozaev
projection parameter s(u).  The fiber map is always evaluated in this
closed form on the fixed grid, never by resampling, which keeps the
uniqueness structure exact; dilate() materializes a resampled profile
only when a downstream consumer needs one.

The root solve is one safeguarded secant loop on
y(s) = log(1 - bracket(s)/||grad u||^2), the log of the second term
over the first, which is linear in s for pure powers.  Each bracket
evaluation also gives the slope estimate k = (N/2) int F_tilde / int F - 2
(exact for pure powers).  From a hint the loop steps toward the root,
first by a Newton step on k, then by secant steps taken as Newton steps
on k scaled by the secant, or, where k is not a positive number, by a
unit-slope step that at most doubles its distance from the hint (capped
at |s| = _BRACKET_CAP).  A small secant step toward a root not yet
crossed aims half a stop tolerance past it, which closes the interval
without an extra evaluation.  Once the sign has changed it stays inside
the sign-change interval or bisects; monotonicity makes it globally
convergent.  Cold projections of smooth 24001-node profiles take 2.6
bracket evaluations for pure powers, 5.0 for critical_piecewise, 4.95
for f6prime_example and 5.95 for log_supercritical.  Failure to bracket
within the cap signals that the supplied nonlinearity violates f1/f3/f4
numerically, or that the profile's root lies beyond the cap, as for a
profile a node or two wide on a coarse grid.

A bracket evaluation forms f, F and F_tilde only on the live prefix of
the grid, for every spec with a dead floor (NonlinearitySpec.dead_floor):
the lanes up to the end of the last block of _LIVE_BLOCK lanes whose
maximum of e^{min(Ns/2, _SCALE_LOG_MAX)} |u| reaches the floor.  Past
it every scaled lane lies below the floor, where the integrands |f t|
and |F| are below 2^-1022 and F_tilde below 3 * 2^-1022, which move no
integral over a profile with normal values on it.  The blocks' maxima
of |u| are built once per projection; each bracket scales them and
takes the last block that reaches the floor.  f itself may still be
normal on the cut lanes, so at s(u) the projection evaluates f there
once more for the reduced gradient.  The brackets, integrals,
projections and reduced gradients keep their bits.  On fiber_batch's
24001-node profiles (seed 0) a bracket at s(u) takes about 130-190 us
for pure_power (50 % of the lanes live, 460-570 us on every lane),
170-240 us for log_supercritical (68 %, 590-680 us), 260-380 us for
critical_piecewise (80 %, 520-590 us) and 230-380 us for
f6prime_example (61 %, 680-790 us) on a shared 2-vCPU host; specs
without a floor (user expressions, from_callables) evaluate every lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, grad_norm_sq, mass, neg_laplacian
from .nonlinearity import NonlinearitySpec, f_tilde

# The projection parameter from a gaussian start scales like pi/m for the
# logarithmic nonlinearity at N=2, so small prescribed masses legitimately
# need s well above 50; 200 still terminates fast for nonconforming f.
_BRACKET_CAP = 200.0
_ROOT_WIDTH = 1e-13
# the root solve stops once a step is at most _ROOT_WIDTH + _ROOT_RTOL |s|,
# and raises RuntimeError after _ROOT_ITERS bracket evaluations
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
_ROOT_ITERS = 100
# a secant step of at most _CLOSE_RTOL max(1, |s|) toward a root not yet
# crossed aims half a stop tolerance past it; on cold projections of
# smooth profiles the bracket evaluations saved stop growing from 1e-7
_CLOSE_RTOL = 1e-6
# exp(_LOG_MAX) is still finite in double precision
_LOG_MAX = 709.0
# the bracket scales u by exp(min(N s/2, _SCALE_LOG_MAX))
_SCALE_LOG_MAX = 700.0
# the bracket cuts the grid's dead tail in blocks of this many lanes
_LIVE_BLOCK = 64


class NonconformanceError(RuntimeError):
    """The nonlinearity does not exhibit the structure the method needs."""


@dataclass
class FiberResult:
    """Outcome of the Pohozaev projection of one profile.

    _f_star holds (u.values, nl, f(e^{N s*/2} u)) from the bracket
    evaluation at s* and, on the lanes that bracket cut, one more call of
    f, which reduced_gradient reuses for that profile and spec; it takes
    no part in repr or comparison, and neither does evaluations, the
    bracket calls the projection made.
    """

    s_star: float
    value: float
    residual: float
    bracket: tuple
    _f_star: tuple | None = field(default=None, repr=False, compare=False)
    evaluations: int = field(default=0, compare=False)


def action(u: GridFunction, nl: NonlinearitySpec) -> float:
    """I(u) = 1/2 ||grad u||^2 - int F(u)."""
    return 0.5 * grad_norm_sq(u) - u.grid.integrate(nl.F(u.values))


def pohozaev(u: GridFunction, nl: NonlinearitySpec) -> float:
    """P(u) = ||grad u||^2 - (N/2) int F_tilde(u)."""
    g = u.grid
    return grad_norm_sq(u) - 0.5 * g.dimension * g.integrate(f_tilde(nl, u.values))


def dilate(s: float, u: GridFunction) -> GridFunction:
    """Materialize (s * u)(r) = e^{Ns/2} u(e^s r) on the same grid.

    Resamples by linear interpolation, which is monotone between nodes
    and never leaves the range of u's values, and extends by zero beyond
    the truncation radius; mass is preserved up to the O(h^2)
    interpolation error.  At s = 0 every node samples itself, and the
    result has u's values bit for bit.
    """
    g = u.grid
    # e^s r overflows to +inf past the largest double, which reads 0
    with np.errstate(over="ignore"):
        vals = np.interp(math.exp(s) * g.nodes, g.nodes, u.values, right=0.0)
    return GridFunction(g, math.exp(0.5 * g.dimension * s) * vals)


def _fiber_value(T: float, F_integral: float, s: float, N: int) -> float:
    """I(s * u) = 1/2 e^{2s} T - e^{-Ns} int F(e^{Ns/2} u), T = ||grad u||^2."""
    return 0.5 * math.exp(2.0 * s) * T - math.exp(-N * s) * F_integral


def fiber_action(u: GridFunction, nl: NonlinearitySpec, s: float) -> float:
    """I(s * u) evaluated in closed form on the fixed grid."""
    g = u.grid
    N = g.dimension
    with np.errstate(over="ignore", invalid="ignore"):
        fval = g.integrate(nl.F(math.exp(0.5 * N * s) * u.values))
    return _fiber_value(grad_norm_sq(u), fval, s, N)


def _block_maxima(u: GridFunction) -> np.ndarray:
    """The maxima of |u| over the grid's blocks of _LIVE_BLOCK lanes."""
    v = np.abs(u.values)
    return np.maximum.reduceat(v, np.arange(0, v.size, _LIVE_BLOCK))


def _live_lanes(u: GridFunction, floor: float, scale: float, blocks: np.ndarray) -> int:
    """The number of leading lanes on which the bracket at the scale
    factor `scale` evaluates the pair: the lanes up to the end of the
    last block whose scaled maximum of |u| (blocks, _block_maxima(u))
    reaches floor, the spec's dead floor.  See the module docstring.
    """
    live = np.flatnonzero(~(scale * blocks < floor))
    return min(u.values.size, (int(live[-1]) + 1) * _LIVE_BLOCK) if live.size else 0


def _fiber_bracket(u: GridFunction, nl: NonlinearitySpec, s: float,
                   T: float | None = None,
                   F_integrals: dict | None = None,
                   f_values: dict | None = None,
                   blocks: np.ndarray | None = None) -> float:
    """The strictly decreasing bracket of d/ds I(s * u):

        ||grad u||^2 - (N/2) e^{-(N+2)s} int F_tilde(e^{Ns/2} u).

    The exponential factor and the integral are combined in log form, so
    neither an underflowing e^{-(N+2)s} nor an overflowing integral can
    produce 0 * inf; the term is capped at e^{_LOG_MAX}, a finite double.
    Under f3/f4 F_tilde grows without bound, so a non-finite F_tilde at a
    huge scaled argument counts as +inf, which keeps the bracket's sign
    (negative); non-finite values at moderate arguments count as 0.  A
    non-finite lane makes the weighted sum non-finite, so that repair
    runs only when the integral is not finite.

    F_tilde is formed from one evaluation of the pair (f, F)
    (NonlinearitySpec.f_and_F), on the live prefix of the grid only (see
    the module docstring).  When F_integrals is given, int F(e^{Ns/2} u)
    is stored in it under s, so the caller can form I(s * u) without
    evaluating F again; when f_values is given, the array f(e^{Ns/2} u)
    on the live prefix is stored in it under s.  blocks is
    _block_maxima(u), which project builds once per profile; a call
    without it builds its own and gives the same bits.  The scale is
    capped at e^{_SCALE_LOG_MAX}.
    """
    g = u.grid
    N = g.dimension
    if T is None:
        T = grad_norm_sq(u)
    scale = math.exp(min(0.5 * N * s, _SCALE_LOG_MAX))
    n = u.values.size
    with np.errstate(over="ignore", invalid="ignore"):
        if nl.dead_floor > 0.0:
            n = _live_lanes(u, nl.dead_floor, scale,
                            _block_maxima(u) if blocks is None else blocks)
        w = g.weights[:n]
        scaled = scale * u.values[:n]
        fv, F = nl.f_and_F(scaled)
        # the arithmetic of f_tilde, so the bracket keeps its bits; ft is
        # this function's own array (fv and F may be a user's), so the
        # subtraction goes in place and saves one grid-sized temporary
        ft = fv * scaled
        ft -= 2.0 * F
        if F_integrals is not None:
            F_integrals[s] = float(np.dot(w, F))
        if f_values is not None:
            f_values[s] = fv
        integral = float(np.dot(w, ft))
        if not math.isfinite(integral):
            bad = ~np.isfinite(ft)
            ft = np.where(bad, np.where(np.abs(scaled) > 1e30, np.inf, 0.0), ft)
            integral = float(np.dot(w, ft))
    if integral == 0.0:
        return T
    log_term = math.log(0.5 * N * abs(integral)) - (N + 2) * s
    return T - math.copysign(math.exp(min(log_term, _LOG_MAX)), integral)


def fiber_pohozaev(u: GridFunction, nl: NonlinearitySpec, s: float) -> float:
    """P(s * u) = e^{2s} * bracket(s), the s-derivative of fiber_action."""
    return math.exp(2.0 * s) * _fiber_bracket(u, nl, s)


def _slope_estimate(T: float, b: float, F_integral: float, s: float, N: int) -> float:
    """k = (N/2) int F_tilde / int F - 2, an estimate of the slope dy/ds
    of y = log(1 - bracket/T) that is exact for F = |t|^p / p
    (k = N(p-2)/2 - 2).  It costs no f/F call: it takes the bracket value
    b at s, since T - b = (N/2) e^{-(N+2)s} int F_tilde, and
    int F(e^{Ns/2} u), so project forms it at every evaluation, for its
    Newton steps and to scale its secant steps.  NaN where T - b or
    int F is not positive.
    """
    if not (b < T and F_integral > 0.0):
        return math.nan
    log_ratio = math.log(T - b) + (N + 2) * s - math.log(F_integral)
    return math.exp(min(log_ratio, _LOG_MAX)) - 2.0


def project(u: GridFunction, nl: NonlinearitySpec, s_hint: float = 0.0) -> FiberResult:
    """Find the unique s(u) with P(s(u) * u) = 0 and the value I(s(u) * u).

    One safeguarded secant loop on y(s) = log(1 - bracket(s)/T), which is
    linear in s for pure powers, starts at s_hint (cheap warm start inside
    descent loops).  Every evaluation forms the slope estimate k(s) of
    _slope_estimate from the bracket's own integrals.  Until the bracket
    changes sign, each step goes the way the bracket's sign points.
    Where the previous point gives no secant (the first step, or a
    previous bracket >= T), the step is a Newton step on k, bounded only
    by _BRACKET_CAP; where k is not finite and positive, it falls back to
    a unit-slope guess.  A secant step is a Newton step on c k(s), c
    being the secant slope over the mean of the two k, so the secant
    only corrects k's bias; where either k is not finite and positive,
    or c is not positive, it is the plain secant step.  The unit-slope
    guess and the secant steps at most double the distance from the
    start.  A secant step of at most _CLOSE_RTOL max(1, |s|) toward a
    root not yet crossed aims half a stop tolerance past the root it
    predicts, so the next evaluation both converges and closes the
    interval; where it falls short, the loop goes on as before.  After
    the sign change, each step stays strictly inside the sign-change
    interval, which is returned as FiberResult.bracket, or the loop
    bisects.  The loop stops when the next step would be at most the
    stop tolerance 1e-13 + 4 eps |s| and both ends of the interval are
    known; a root approached from one side within that tolerance gets
    one closing step of that size across it.  s(u) is the end with the
    smaller bracket.  Cold projections of smooth 24001-node profiles
    take 2.6 bracket evaluations for pure powers, 5.0 for
    critical_piecewise, 4.95 for f6prime_example and 5.95 for
    log_supercritical.  Each evaluation forms f and F on the profile's
    live prefix only (see the module docstring), from the blocks' maxima
    of |u| that project builds once.  The loop keeps the f array of the
    current ends only, and hands the one at s(u), completed past its
    prefix by one more call of f, to reduced_gradient through the
    FiberResult, with the number of bracket evaluations it made as
    FiberResult.evaluations.

    Raises ValueError for the zero profile and NonconformanceError when no
    sign change of the monotone bracket exists within |s| <= _BRACKET_CAP:
    f violates its hypotheses numerically, or the root lies beyond the
    cap, as for a profile only a node or two wide.
    """
    if mass(u) <= 0.0:
        raise ValueError("cannot project the zero profile")
    T = grad_norm_sq(u)
    if T <= 0.0:
        raise NonconformanceError(
            "profile carries no gradient energy; projection undefined"
        )
    N = u.grid.dimension
    F_integrals, f_values = {}, {}
    blocks = _block_maxima(u) if nl.dead_floor > 0.0 else None
    anchor = float(np.clip(s_hint, -_BRACKET_CAP, _BRACKET_CAP))
    # the sign-change interval: bracket(lo) >= 0 >= bracket(hi)
    lo, hi = -math.inf, math.inf
    s, s_prev, y_prev, k_prev = anchor, math.nan, math.nan, math.nan
    older = last = math.inf  # the step before the last one, and the last
    for evaluations in range(1, _ROOT_ITERS + 1):
        b = _fiber_bracket(u, nl, s, T, F_integrals, f_values, blocks)
        at_s = (b, F_integrals.pop(s), f_values.pop(s))
        if b >= 0.0:
            lo, at_lo = s, at_s
        if b <= 0.0:
            hi, at_hi = s, at_s
        if lo == hi:
            break
        # y rises through 0 at the root; -inf where the bracket is >= T
        y = math.log1p(-b / T) if b < T else -math.inf
        k = _slope_estimate(T, b, at_s[1], s, N)
        usable = math.isfinite(k) and k > 0.0
        # a secant step on y, taken as a Newton step on c k, where c is the
        # secant slope over the mean of the two k, so that the secant only
        # corrects k's bias (plain where c or a k is unusable); where the
        # previous point gives no secant (the first step, or y_prev =
        # -inf), a Newton step on k, else a unit-slope guess: the
        # builtins' slopes are of order 1
        secant = math.isfinite(y_prev) and y != y_prev
        newton = False
        if secant:
            t = s - y * (s - s_prev) / (y - y_prev)
            if usable and k_prev > 0.0:
                slope = (y - y_prev) / (s - s_prev) / (0.5 * (k + k_prev)) * k
                if slope > 0.0:
                    t = s - y / slope
        else:
            newton = usable
            t = s - y / k if newton else s - y
        tol = _ROOT_WIDTH + _ROOT_RTOL * abs(s)
        # the bracket decreases in s: the root lies on the side of s that
        # b's sign points to
        d = 1.0 if b > 0.0 else -1.0
        if math.isfinite(hi - lo):
            # s is an end of the interval: a step inside it that at least
            # halves every second step, else bisection (also for a NaN
            # secant, where y is infinite at s)
            if not (abs(t - s) <= tol or lo < t < hi and abs(t - s) < 0.5 * abs(older)):
                t = 0.5 * (lo + hi)
            if abs(t - s) <= tol:
                break
        elif abs(t - s) <= tol:
            # s is within tol of a root it has not crossed: one closing
            # step across it makes the interval finite
            t = s + d * tol
        else:
            if not newton:
                # toward the root, at most doubling the distance from the
                # anchor
                far = anchor + d * max(2.0 * abs(s - anchor), 0.5)
                if not 0.0 < d * (t - s) <= d * (far - s):
                    t = far
            if secant and d * (t - s) <= _CLOSE_RTOL * max(1.0, abs(s)):
                # a small secant correction toward a root not yet crossed:
                # aim half a tolerance past that root, so the next
                # evaluation both converges and closes the interval
                t += 0.5 * d * tol
        if d * t > _BRACKET_CAP:
            if d * s >= _BRACKET_CAP:
                way, hyp, turn = (("up", "f3", "negative") if d > 0.0
                                  else ("down", "f1", "positive"))
                raise NonconformanceError(
                    f"no Pohozaev sign change {way} to s = {d * _BRACKET_CAP:g}: the "
                    f"nonlinearity numerically violates ({hyp}) or (f4) "
                    f"(bracket never turns {turn}), or the profile's dilation root "
                    f"lies beyond |s| = {_BRACKET_CAP:g}, e.g. on a grid too coarse "
                    f"for the profile"
                )
            t = d * _BRACKET_CAP
        older, last = last, t - s
        s_prev, y_prev, k_prev, s = s, y, k, t
    else:
        raise RuntimeError(f"projection failed to converge after {_ROOT_ITERS} evaluations")
    s_star, (b, F_integral, f_star) = ((lo, at_lo) if abs(at_lo[0]) <= abs(at_hi[0])
                                       else (hi, at_hi))
    n = len(f_star)
    if n < u.values.size:
        # f itself on the cut lanes, at the bracket's scale, where it may
        # still be normal; a grid-sized array outlives the projection (a
        # prefix-sized one left holes in the heap that raised fiber_batch's
        # peak resident memory by 1.5 MB over ten passes)
        scale = math.exp(min(0.5 * N * s_star, _SCALE_LOG_MAX))
        f_star = np.concatenate((f_star, nl.f(scale * u.values[n:])))
    return FiberResult(
        s_star=float(s_star),
        value=_fiber_value(T, F_integral, s_star, N),
        residual=abs(math.exp(2.0 * s_star) * b),
        bracket=(float(lo), float(hi)),
        _f_star=(u.values, nl, f_star),
        evaluations=evaluations,
    )


def reduced_value(u: GridFunction, nl: NonlinearitySpec) -> float:
    """J(u) = I(s(u) * u), the dilation-invariant reduced functional."""
    return project(u, nl).value


def reduced_gradient(u: GridFunction, nl: NonlinearitySpec,
                     fiber: FiberResult | None = None) -> GridFunction:
    """Weighted-L^2 representative of dJ(u):

        e^{2s} (-Delta u)_i - e^{-Ns/2} f(e^{Ns/2} u_i),  s = s(u).

    fiber, if given, is project(u, nl).  Its f array at s(u) stands in for
    f(e^{Ns/2} u) when it was computed for this u and nl and the bracket's
    scale e^{min(Ns/2, _SCALE_LOG_MAX)} is e^{Ns/2}; otherwise f is
    evaluated here.  That array holds f's own value on every lane, the
    lanes the bracket cut included.
    """
    if fiber is None:
        fiber = project(u, nl)
    g = u.grid
    N = g.dimension
    s = fiber.s_star
    lap = neg_laplacian(u).values
    values, spec, fv = fiber._f_star or (None, None, None)
    if values is not u.values or spec is not nl or 0.5 * N * s > _SCALE_LOG_MAX:
        fv = nl.f(math.exp(0.5 * N * s) * u.values)
    vals = math.exp(2.0 * s) * lap - math.exp(-0.5 * N * s) * fv
    return GridFunction(g, vals)
