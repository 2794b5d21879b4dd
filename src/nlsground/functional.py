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

The root solve expands a sign-change bracket by doubling steps from a
hint (capped at |s| = _BRACKET_CAP) and then runs one Brent solve on it;
monotonicity makes it globally convergent.  Failure to bracket within
the cap signals that the supplied nonlinearity violates f1/f3/f4
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .grid import GridFunction, grad_norm_sq, mass, neg_laplacian
from .nonlinearity import NonlinearitySpec, f_tilde

# The projection parameter from a gaussian start scales like pi/m for the
# logarithmic nonlinearity at N=2, so small prescribed masses legitimately
# need s well above 50; 200 still terminates fast for nonconforming f.
_BRACKET_CAP = 200.0
_ROOT_WIDTH = 1e-13
# exp(_LOG_MAX) is still finite in double precision
_LOG_MAX = 709.0


class NonconformanceError(RuntimeError):
    """The nonlinearity does not exhibit the structure the method needs."""


@dataclass
class FiberResult:
    """Outcome of the Pohozaev projection of one profile."""

    s_star: float
    value: float
    residual: float
    bracket: tuple


def action(u: GridFunction, nl: NonlinearitySpec) -> float:
    """I(u) = 1/2 ||grad u||^2 - int F(u)."""
    return 0.5 * grad_norm_sq(u) - u.grid.integrate(nl.F(u.values))


def pohozaev(u: GridFunction, nl: NonlinearitySpec) -> float:
    """P(u) = ||grad u||^2 - (N/2) int F_tilde(u)."""
    g = u.grid
    return grad_norm_sq(u) - 0.5 * g.dimension * g.integrate(f_tilde(nl, u.values))


def dilate(s: float, u: GridFunction) -> GridFunction:
    """Materialize (s * u)(r) = e^{Ns/2} u(e^s r) on the same grid.

    Resamples by shape-preserving monotone cubic interpolation and
    extends by zero beyond the truncation radius; mass is preserved up to
    interpolation error.
    """
    g = u.grid
    if s == 0.0:
        return u.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        interp = PchipInterpolator(g.nodes, u.values, extrapolate=False)
        vals = interp(math.exp(s) * g.nodes)
    vals = np.where(np.isnan(vals), 0.0, vals)
    return GridFunction(g, math.exp(0.5 * g.dimension * s) * vals)


def fiber_action(u: GridFunction, nl: NonlinearitySpec, s: float) -> float:
    """I(s * u) evaluated in closed form on the fixed grid."""
    g = u.grid
    N = g.dimension
    with np.errstate(over="ignore", invalid="ignore"):
        fval = g.integrate(nl.F(math.exp(0.5 * N * s) * u.values))
    return 0.5 * math.exp(2.0 * s) * grad_norm_sq(u) - math.exp(-N * s) * fval


def _fiber_bracket(u: GridFunction, nl: NonlinearitySpec, s: float,
                   T: float | None = None) -> float:
    """The strictly decreasing bracket of d/ds I(s * u):

        ||grad u||^2 - (N/2) e^{-(N+2)s} int F_tilde(e^{Ns/2} u).

    The exponential factor and the integral are combined in log form, so
    neither an underflowing e^{-(N+2)s} nor an overflowing integral can
    produce 0 * inf; the term is capped at e^{_LOG_MAX}, a finite double.
    Under f3/f4 F_tilde grows without bound, so a non-finite F_tilde at a
    huge scaled argument counts as +inf, which keeps the bracket's sign
    (negative); non-finite values at moderate arguments count as 0.
    """
    g = u.grid
    N = g.dimension
    if T is None:
        T = grad_norm_sq(u)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = math.exp(min(0.5 * N * s, 700.0)) * u.values
        ft = f_tilde(nl, scaled)
        bad = ~np.isfinite(ft)
        if np.any(bad):
            ft = np.where(bad, np.where(np.abs(scaled) > 1e30, np.inf, 0.0), ft)
        integral = g.integrate(ft)
    if integral == 0.0:
        return T
    log_term = math.log(0.5 * N * abs(integral)) - (N + 2) * s
    return T - math.copysign(math.exp(min(log_term, _LOG_MAX)), integral)


def fiber_pohozaev(u: GridFunction, nl: NonlinearitySpec, s: float) -> float:
    """P(s * u) = e^{2s} * bracket(s), the s-derivative of fiber_action."""
    return math.exp(2.0 * s) * _fiber_bracket(u, nl, s)


def project(u: GridFunction, nl: NonlinearitySpec, s_hint: float = 0.0,
            width: float = _ROOT_WIDTH) -> FiberResult:
    """Find the unique s(u) with P(s(u) * u) = 0 and the value I(s(u) * u).

    The bracket is expanded by doubling steps from s_hint (cheap warm start
    inside descent loops) into a sign-change interval, which is returned as
    FiberResult.bracket; one Brent solve on it then locates s(u) to the
    absolute tolerance width.

    Raises ValueError for the zero profile and NonconformanceError when no
    sign change of the monotone bracket exists within |s| <= _BRACKET_CAP.
    """
    if mass(u) <= 0.0:
        raise ValueError("cannot project the zero profile")
    T = grad_norm_sq(u)
    if T <= 0.0:
        raise NonconformanceError(
            "profile carries no gradient energy; projection undefined"
        )
    seen = {}

    def bracket(s):
        # Brent re-evaluates the expansion's end points and the residual
        # needs the root's value: each s is evaluated once
        if s not in seen:
            seen[s] = _fiber_bracket(u, nl, s, T)
        return seen[s]

    anchor = float(np.clip(s_hint, -_BRACKET_CAP, _BRACKET_CAP))
    b0 = bracket(anchor)
    if b0 == 0.0:
        lo = hi = anchor
    elif b0 > 0.0:
        # bracket decreasing: root lies above the anchor
        lo, hi = anchor, anchor + 0.5
        while bracket(hi) > 0.0:
            lo, hi = hi, anchor + 2.0 * (hi - anchor)
            if hi > _BRACKET_CAP:
                raise NonconformanceError(
                    f"no Pohozaev sign change up to s = {_BRACKET_CAP:g}: the "
                    "nonlinearity numerically violates (f3) or (f4) "
                    "(bracket never turns negative)"
                )
    else:
        lo, hi = anchor - 0.5, anchor
        while bracket(lo) < 0.0:
            lo, hi = anchor - 2.0 * (anchor - lo), lo
            if lo < -_BRACKET_CAP:
                raise NonconformanceError(
                    f"no Pohozaev sign change down to s = {-_BRACKET_CAP:g}: the "
                    "nonlinearity numerically violates (f1) or (f4) "
                    "(bracket never turns positive)"
                )
    s_star = lo if lo == hi else brentq(bracket, lo, hi, xtol=width)
    return FiberResult(
        s_star=float(s_star),
        value=fiber_action(u, nl, s_star),
        residual=abs(math.exp(2.0 * s_star) * bracket(s_star)),
        bracket=(float(lo), float(hi)),
    )


def reduced_value(u: GridFunction, nl: NonlinearitySpec) -> float:
    """J(u) = I(s(u) * u), the dilation-invariant reduced functional."""
    return project(u, nl).value


def reduced_gradient(u: GridFunction, nl: NonlinearitySpec,
                     fiber: FiberResult | None = None) -> GridFunction:
    """Weighted-L^2 representative of dJ(u):

        e^{2s} (-Delta u)_i - e^{-Ns/2} f(e^{Ns/2} u_i),  s = s(u).
    """
    if fiber is None:
        fiber = project(u, nl)
    g = u.grid
    N = g.dimension
    s = fiber.s_star
    lap = neg_laplacian(u).values
    fv = nl.f(math.exp(0.5 * N * s) * u.values)
    vals = math.exp(2.0 * s) * lap - math.exp(-0.5 * N * s) * fv
    return GridFunction(g, vals)
