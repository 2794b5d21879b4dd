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

The Brent solve (_brent; Brent, Algorithms for Minimization without
Derivatives, 1973) and dilate's monotone cubic resample (_pchip;
Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980) are ports of
scipy.optimize.brentq and scipy.interpolate.PchipInterpolator that
reproduce scipy's bits, so importing this module loads neither scipy
subpackage nor the scipy.special they share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, grad_norm_sq, mass, neg_laplacian
from .nonlinearity import NonlinearitySpec, f_tilde

# The projection parameter from a gaussian start scales like pi/m for the
# logarithmic nonlinearity at N=2, so small prescribed masses legitimately
# need s well above 50; 200 still terminates fast for nonconforming f.
_BRACKET_CAP = 200.0
_ROOT_WIDTH = 1e-13
# scipy.optimize.brentq's relative tolerance and iteration cap
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)
_ROOT_ITERS = 100
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


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end derivative, limited to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y, xq):
    """Fritsch-Carlson monotone cubic interpolant of (x, y) at xq.

    A port of scipy.interpolate.PchipInterpolator(x, y,
    extrapolate=False)(xq) for 1-D data that reproduces its bits: the
    weighted-harmonic-mean derivatives d with limited ends, the cubic
    Hermite power coefficients, and the evaluation on the interval
    [x_i, x_{i+1}) (the last one closed) as 0.0 + y_i + d_i s + c1 s^2 +
    c0 s^3, s = xq - x_i, whose leading 0.0 turns a -0.0 into +0.0.  NaN
    outside [x_0, x_{-1}].
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if y.size == 2:
        d[:] = m[0]
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[i]
    s2 = s * s
    out = 0.0 + y[i] + d[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
    out[~((xq >= x[0]) & (xq <= x[-1]))] = np.nan
    return out


def dilate(s: float, u: GridFunction) -> GridFunction:
    """Materialize (s * u)(r) = e^{Ns/2} u(e^s r) on the same grid.

    Resamples by shape-preserving monotone cubic interpolation (_pchip,
    which gives scipy's PchipInterpolator bit for bit) and extends by
    zero beyond the truncation radius; mass is preserved up to
    interpolation error.
    """
    g = u.grid
    if s == 0.0:
        return u.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = _pchip(g.nodes, u.values, math.exp(s) * g.nodes)
    vals = np.where(np.isnan(vals), 0.0, vals)
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


def _fiber_bracket(u: GridFunction, nl: NonlinearitySpec, s: float,
                   T: float | None = None,
                   F_integrals: dict | None = None) -> float:
    """The strictly decreasing bracket of d/ds I(s * u):

        ||grad u||^2 - (N/2) e^{-(N+2)s} int F_tilde(e^{Ns/2} u).

    The exponential factor and the integral are combined in log form, so
    neither an underflowing e^{-(N+2)s} nor an overflowing integral can
    produce 0 * inf; the term is capped at e^{_LOG_MAX}, a finite double.
    Under f3/f4 F_tilde grows without bound, so a non-finite F_tilde at a
    huge scaled argument counts as +inf, which keeps the bracket's sign
    (negative); non-finite values at moderate arguments count as 0.

    F_tilde is formed from one evaluation of F; when F_integrals is
    given, int F(e^{Ns/2} u) is stored in it under s, so the caller can
    form I(s * u) without evaluating F again.
    """
    g = u.grid
    N = g.dimension
    if T is None:
        T = grad_norm_sq(u)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = math.exp(min(0.5 * N * s, 700.0)) * u.values
        F = nl.F(scaled)
        # the arithmetic of f_tilde, so the bracket keeps its bits
        ft = nl.f(scaled) * scaled - 2.0 * F
        if F_integrals is not None:
            F_integrals[s] = g.integrate(F)
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


def _brent(f, a: float, b: float, xtol: float) -> float:
    """Root of f on the sign-change interval [a, b] by Brent's method.

    A port of scipy.optimize.brentq (rtol = 4 eps, 100 iterations) that
    keeps its operations in their order, so every point it evaluates f at
    and the root it returns carry scipy's bits.  Raises ValueError on a
    NaN value or no sign change, RuntimeError when it does not converge.
    """
    def value(x):
        # a C double, as scipy's routine sees it
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITERS):
        # scipy skips this for a zero fcur, which returns below either way
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives inf or NaN, which the test below rejects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_ROOT_ITERS} iterations.")


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
    F_integrals = {}

    def bracket(s):
        # Brent re-evaluates the expansion's end points, and the residual
        # and the value need the root's evaluation: each s is evaluated once
        if s not in seen:
            seen[s] = _fiber_bracket(u, nl, s, T, F_integrals)
        return seen[s]

    anchor = float(np.clip(s_hint, -_BRACKET_CAP, _BRACKET_CAP))
    b0 = bracket(anchor)
    if b0 == 0.0:
        lo = hi = anchor
    else:
        # the bracket decreases in s: the root lies on the side of the
        # anchor that b0's sign points to, and doubling steps walk there
        d = 1.0 if b0 > 0.0 else -1.0
        near, far = anchor, anchor + d * 0.5
        while d * bracket(far) > 0.0:
            near, far = far, anchor + 2.0 * (far - anchor)
            if d * far > _BRACKET_CAP:
                way, hyp, turn = (("up", "f3", "negative") if d > 0.0
                                  else ("down", "f1", "positive"))
                raise NonconformanceError(
                    f"no Pohozaev sign change {way} to s = {d * _BRACKET_CAP:g}: the "
                    f"nonlinearity numerically violates ({hyp}) or (f4) "
                    f"(bracket never turns {turn})"
                )
        lo, hi = min(near, far), max(near, far)
    s_star = lo if lo == hi else _brent(bracket, lo, hi, width)
    # before the value: the root's evaluation records its F integral
    residual = abs(math.exp(2.0 * s_star) * bracket(s_star))
    return FiberResult(
        s_star=float(s_star),
        value=_fiber_value(T, F_integrals[s_star], s_star, u.grid.dimension),
        residual=residual,
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
