"""Nonlinearities f, their derived quantities, and hypothesis certification.

A nonlinearity enters as a pair (f, F) with F the primitive of f and
F(0) = 0.  Derived quantities:

    F_tilde(t) = f(t) t - 2 F(t)
    g(t)       = F_tilde(t) / |t|^{2+4/N}   (g(0) = 0)

The mass-supercritical hypotheses certified here, numerically and by
finite sampling (verdicts are {pass, fail, inconclusive}, not proofs):

    f0: continuity
    f1: f(t)/|t|^{1+4/N} -> 0 as t -> 0
    f2: N >= 3: f(t)/|t|^{(N+2)/(N-2)} -> 0 as t -> inf;
        N = 2: f(t)/exp(g t^2) -> 0 for every g > 0
    f3: F(t)/|t|^{2+4/N} -> +inf as t -> inf
    f4: g strictly decreasing on (-inf,0), strictly increasing on (0,inf)
    f5: N >= 3: f(t) t < (2N/(N-2)) F(t) strictly for t != 0
    f6: N >= 3: f(t) t / |t|^{2N/(N-2)} -> +inf as t -> 0
    f6': the same quotient has finite limsup at t -> 0
    f7: [f(t)t - (2+4/N) F(t)]/t^2 nonincreasing on (-inf,0),
        nondecreasing on (0,inf)

Divergence hypotheses (f3, f6) cannot be decided by a bare log-log slope
threshold: the shipped logarithmic nonlinearity diverges in f3 with
slope -> 0.  They are therefore decided by per-decade increment analysis
(constant or growing increments mean divergence, geometrically decaying
increments mean a finite limit), falling back on slope regression for
clean power behavior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_SLOPE_TOL = 0.1
_FIT_MIN_R2 = 0.9
_GEOM_DECAY = 0.6
# check_conditions samples |t| log-uniformly over [_T_MIN, _T_MAX]
_T_MIN = 1e-6
_T_MAX = 1e6
_PER_DECADE = 9
# f2 reads |f| only below e^600: the expression language caps exp's
# argument at 700, so larger values are saturated, not growth
_F_SATURATION = math.exp(600.0)
# numpy's ``**`` sends these exponents to its positive and square loops,
# which stay faster than a masked pow even on underflowing lanes
_FAST_EXPONENTS = (1.0, 2.0)
_ALL_BITS = np.iinfo(np.uint64).max


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f with analytic primitive F and claimed hypotheses.

    ``fused``, if set, returns ``(f(t), F(t))`` from one pass that shares
    their common subexpressions; its result must equal ``(f(t), F(t))``
    bit for bit.  ``f_and_F`` calls it, or f and F where it is None.  A
    copy that replaces f or F with a different function (say by
    ``dataclasses.replace``) must replace or clear ``fused`` as well, or
    the fiber layer keeps evaluating the old pair.

    ``dead_floor`` is a t0 >= 0 such that the bracket's integrands,
    |f(t) t| and |F(t)| from the fused pair, lie below 2^-1022, the
    smallest normal double, for every |t| < t0; 0.0, the default, claims
    nothing.  |f(t)| itself may still be normal there.  The fiber bracket
    evaluates the pair only on the lanes before the point past which every
    scaled lane lies below t0, and the projection evaluates f once more on
    the lanes past it at s(u) for the reduced gradient.
    ``dataclasses.replace`` keeps the floor: a copy that swaps f
    or F for a function with other values must clear it
    (``dead_floor=0.0``) or set one that holds for the new pair, while
    one whose wrappers compute the same values, like perfbench's tracer,
    may keep it.
    """

    name: str
    f: callable
    F: callable
    claimed: frozenset
    params: dict = field(default_factory=dict)
    fused: callable = field(default=None, repr=False)
    dead_floor: float = field(default=0.0, repr=False)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"NonlinearitySpec({self.name}, {ps})"

    def f_and_F(self, t):
        """(f(t), F(t)), from one fused evaluation where the spec has one."""
        if self.fused is None:
            return self.f(t), self.F(t)
        return self.fused(t)


@dataclass
class ConditionReport:
    """Per-hypothesis verdicts with numeric witnesses."""

    name: str
    dimension: int
    entries: dict  # hypothesis -> {"verdict", "witnesses", "method"}
    sampling: dict

    def verdict(self, hypothesis: str) -> str:
        return self.entries[hypothesis]["verdict"]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "sampling": self.sampling,
            "hypotheses": self.entries,
        }


@functools.lru_cache(maxsize=256)
def _floor_bits(p: float) -> np.uint64:
    """The bits of power's floor for the exponent p > 0: the smallest
    positive double whose p-th power, by numpy's array pow, is at least
    2^-1022.  2^(-1022/p) carries the rounding of -1022/p, up to a few
    hundred ulps, so nextafter walks it to the exact value.  Where that
    is 5e-324 only +0.0 lies below it, whose power is +0.0 anyway, and
    the floor drops to 0 so that such exponents keep the unmasked path.
    """
    tiny = np.finfo(float).tiny
    x = np.array([2.0 ** (-1022.0 / p)])
    with np.errstate(under="ignore"):
        while np.power(x, p)[0] < tiny:
            x = np.nextafter(x, np.inf)
        below = np.nextafter(x, 0.0)
        while below[0] > 0.0 and np.power(below, p)[0] >= tiny:
            x, below = below, np.nextafter(below, 0.0)
    bits = x.view(np.uint64)[0]
    return bits if bits > 1 else np.uint64(0)


def power(a, p: float, where=None, exponent=None):
    """``np.power(a, exponent)`` on the lanes of ``where`` (all by
    default) and +0.0 on the others, for a float array ``a`` and the float
    ``p``: numpy's bits, except +0.0 where numpy's result would be a
    positive subnormal.  ``exponent`` is ``p`` or an array of ``p``: an
    array exponent keeps pow's own bits at p = 0.5 and 2.0, where a float
    one takes numpy's sqrt and square paths, which round differently.

    A lane whose sign bit is clear and whose value lies below the floor,
    p > 0, has a power below 2^-1022, the smallest normal double: the
    floor is the smallest double whose power reaches 2^-1022, found once
    per exponent (_floor_bits).  numpy's SIMD pow takes a scalar fallback
    on every lane whose result is subnormal or zero (on decaying
    profiles, most of the grid), so those lanes are filled with +0.0 and
    pow runs on the rest.  Times a finite quadrature weight, a value
    below 2^-1022 moves a weighted sum only when the whole sum lies near
    the subnormal range itself, which no integral over a profile with
    normal powers on it does.  NaN, inf, -0.0 and negative lanes still go
    through pow.  Without ``where``, an exponent in _FAST_EXPONENTS, or
    an array with no lane below the floor, takes plain ``a ** exponent``,
    subnormal results included.
    """
    a = np.asarray(a)
    e = p if exponent is None else exponent
    if p > 0 and (where is not None or p not in _FAST_EXPONENTS):
        floor = _floor_bits(p)
        bits = a.view(np.uint64)  # sign bit set: above every floor
        if where is not None:
            where = where & (bits >= floor)
        elif bits.min(initial=_ALL_BITS) < floor:
            where = bits >= floor
    if where is None:
        return a ** e
    out = np.zeros_like(a)
    np.power(a, e, out=out, where=where)
    return out


def f_tilde(nl: NonlinearitySpec, t):
    """F_tilde(t) = f(t) t - 2 F(t)."""
    t = np.asarray(t, dtype=float)
    fv, Fv = nl.f_and_F(t)
    return fv * t - 2.0 * Fv


def g_quotient(nl: NonlinearitySpec, t, N: int):
    """g(t) = F_tilde(t)/|t|^{2+4/N}, continuously extended by g(0) = 0.

    Arguments below the |t|^{2+4/N} underflow threshold are mapped to 0 as
    well: their contribution to any weighted integral of g(u)|u|^{2+4/N}
    is below double precision regardless of g's true value there.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    nz = np.abs(t) > 1e-40
    with np.errstate(over="ignore", invalid="ignore"):
        out[nz] = f_tilde(nl, t[nz]) / np.abs(t[nz]) ** (2.0 + 4.0 / N)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# builtins


# _dead_floor's sample: every power of two from 2^-1074 to 1
_FLOOR_SCAN = np.ldexp(1.0, np.arange(-1074, 1))


def _dead_floor(fused) -> float:
    """A dead floor for the pair (NonlinearitySpec.dead_floor): the largest
    power of two t0 <= 1 such that fused gives |f(t) t| and |F(t)|, the
    bracket's integrands, below 2^-1022 at +-t for t0 and every smaller
    power of two, from one evaluation on +-2^-1074 ... +-1; 0.0 where
    2^-1074 already fails, and a NaN fails.  For t0 < 1 the next power of
    two, 2 t0, fails, so where |f t| and |F| grow with |t| near 0, as the
    builtins' power laws do, the floor holds between the samples too and
    lies within a factor 2 below the first |t| with a normal integrand.
    One scan costs 40-90 us.
    """
    t = np.concatenate([_FLOOR_SCAN, -_FLOOR_SCAN])
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        fv, F = fused(t)
        dead = (np.abs(fv * t) < tiny) & (np.abs(F) < tiny)
    dead = dead[:_FLOOR_SCAN.size] & dead[_FLOOR_SCAN.size:]
    live = dead.size if dead.all() else int(np.argmin(dead))
    return float(_FLOOR_SCAN[live - 1]) if live else 0.0


def _builtin_spec(name, common, f_of, F_of, claimed, params) -> NonlinearitySpec:
    """A spec whose f, F and fused pair all start from common(t): f is
    f_of(*common(t)), F is F_of(*common(t)), and the fused pair evaluates
    common(t) once for both, which leaves every operation and its bits
    as they are.  Its dead floor comes from one fused evaluation
    (_dead_floor)."""

    def f(t):
        return f_of(*common(t))

    def F(t):
        return F_of(*common(t))

    def fused(t):
        shared = common(t)
        return f_of(*shared), F_of(*shared)

    return NonlinearitySpec(name=name, f=f, F=F, claimed=frozenset(claimed),
                            params=params, fused=fused, dead_floor=_dead_floor(fused))


def _signed_abs(t):
    t = np.asarray(t, dtype=float)
    return t, np.abs(t)


def _pure_power(N: int, p: float) -> NonlinearitySpec:
    lo = 2.0 + 4.0 / N
    hi = 2.0 * N / (N - 2.0) if N >= 3 else math.inf
    if not (lo < p < hi):
        raise ValueError(
            f"pure_power requires {lo} < p < {hi} in dimension {N}, got p={p}"
        )

    def f_of(t, abs_t):
        return power(abs_t, p - 2.0) * t

    def F_of(t, abs_t):
        return power(abs_t, p) / p

    return _builtin_spec(
        "pure_power", _signed_abs, f_of, F_of,
        claimed={"f0", "f1", "f2", "f3", "f4", "f5", "f6", "odd"},
        params={"N": N, "p": p},
    )


def _log_supercritical(N: int) -> NonlinearitySpec:
    alpha = 1.0 if N <= 2 else 8.0 / (N * (N - 2.0))
    q = 2.0 + 4.0 / N

    # at alpha = 1 (N <= 2) |t|^alpha and alpha |t|^alpha are copies of |t|
    unit = alpha == 1.0

    def common(t):
        t, abs_t = _signed_abs(t)
        a = abs_t if unit else power(abs_t, alpha)
        return t, abs_t, a, np.log1p(a)

    def f_of(t, abs_t, a, log_a):
        return (q * log_a + (a if unit else alpha * a) / (1.0 + a)) * power(abs_t, 4.0 / N) * t

    def F_of(t, abs_t, a, log_a):
        return power(abs_t, q) * log_a

    return _builtin_spec(
        "log_supercritical", common, f_of, F_of,
        claimed={"f0", "f1", "f2", "f3", "f4", "f5", "odd"},
        params={"N": N, "alpha_N": alpha},
    )


def _critical_piecewise(N: int, p: float | None = None) -> NonlinearitySpec:
    if N < 3:
        raise ValueError("critical_piecewise requires N >= 3")
    two_star = 2.0 * N / (N - 2.0)
    p_N = 2.0 + 4.0 / N + 8.0 / N**2
    if p is None:
        p = 0.5 * (p_N + two_star)
    if not (p_N < p < two_star):
        raise ValueError(
            f"critical_piecewise requires {p_N} < p < {two_star} in dimension {N}, got p={p}"
        )

    def common(t):
        t, a = _signed_abs(t)
        return t, a, a <= 1.0

    def f_of(t, a, lo):
        # the outer branch goes into the inner branch's array: its lanes
        # exceed 1 (or are NaN), so power's floor would mask none of them
        out = power(a, two_star - 2.0, where=lo)
        np.power(a, p - 2.0, out=out, where=~lo)
        return out * t

    def F_of(t, a, lo):
        out = power(a, two_star, where=lo)
        out /= two_star  # in place: a 0-d result stays assignable
        # the outer branch on its own lanes only; a NaN lane takes it at |t| = 1
        hi = ~lo
        if hi.any():
            b = a[hi]
            out[hi] = 1.0 / two_star + (power(np.where(b > 1.0, b, 1.0), p) - 1.0) / p
        return out

    return _builtin_spec(
        "critical_piecewise", common, f_of, F_of,
        claimed={"f0", "f1", "f2", "f3", "f4", "odd"},
        params={"N": N, "p": p, "p_N": p_N},
    )


def _f6prime_example(N: int, beta: float = 1.0, beta_N: float | None = None) -> NonlinearitySpec:
    if N < 3:
        raise ValueError("f6prime_example requires N >= 3")
    cap = 4.0 / (N * (N - 2.0))
    if beta_N is None:
        beta_N = cap
    if not 0 < beta < math.inf:
        raise ValueError(f"need finite beta > 0, got {beta}")
    if not (0.0 < beta_N <= cap):
        raise ValueError(f"need beta_N in (0, {cap}], got {beta_N}")
    two_star = 2.0 * N / (N - 2.0)
    # a product with a coefficient of 1.0 copies its input's bits, so it
    # is skipped
    damp_coef = beta_N * (N - 2.0)
    F_coef = beta * (N - 2.0)

    def common(t):
        t, abs_t = _signed_abs(t)
        a = power(abs_t, beta_N)
        one_a = 1.0 + a
        return t, abs_t, a, one_a, 2.0 * N * one_a

    def f_of(t, abs_t, a, one_a, two_n_one_a):
        damp = 1.0 - (a if damp_coef == 1.0 else damp_coef * a) / two_n_one_a
        if beta != 1.0:
            damp = beta * damp
        return damp * power(abs_t, 4.0 / (N - 2.0)) * t / one_a

    def F_of(t, abs_t, a, one_a, two_n_one_a):
        pw = power(abs_t, two_star)
        return (pw if F_coef == 1.0 else F_coef * pw) / two_n_one_a

    return _builtin_spec(
        "f6prime_example", common, f_of, F_of,
        claimed={"f0", "f1", "f2", "f3", "f4", "f5", "f6p", "odd"},
        params={"N": N, "beta": beta, "beta_N": beta_N},
    )


_BUILTINS = {
    "pure_power": _pure_power,
    "log_supercritical": _log_supercritical,
    "critical_piecewise": _critical_piecewise,
    "f6prime_example": _f6prime_example,
}


def builtin(name: str, N: int, **params) -> NonlinearitySpec:
    """Construct one of the shipped nonlinearities in dimension N."""
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown nonlinearity {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None
    return ctor(N, **params)


def from_callables(name: str, f, F, params=None) -> NonlinearitySpec:
    """Wrap user callables (e.g. parsed expressions) as a spec claiming no hypothesis."""
    return NonlinearitySpec(name=name, f=f, F=F, claimed=frozenset(),
                            params=dict(params or {}))


# ---------------------------------------------------------------------------
# verdict machinery


def _witness(ts, qs):
    idx = np.linspace(0, len(ts) - 1, min(4, len(ts))).astype(int)
    return [{"t": float(ts[i]), "value": float(qs[i])} for i in idx]


def _loglog_slope(ts, qs):
    """Least-squares slope of log|q| vs log t and the fit quality."""
    ok = np.isfinite(qs) & (np.abs(qs) > 0) & np.isfinite(ts) & (ts > 0)
    if ok.sum() < 3:
        return None, 0.0
    x, y = np.log(ts[ok]), np.log(np.abs(qs[ok]))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if res.size else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def _limit_zero(ts, qs, approach_zero: bool):
    """Verdict on 'quotient -> 0' as t -> 0 (approach_zero) or t -> inf:
    by the log-log slope over the two decades nearest the limit point, or,
    where that fit is poor, fail for a quotient that rises at every sample
    of the last decade and ends above ten times its start there."""
    if not np.all(np.isfinite(qs)):
        return "inconclusive", "non-finite quotient samples"
    scale = float(np.max(np.abs(qs))) if qs.size else 0.0
    if scale == 0.0:
        return "pass", "quotient identically zero on sample"
    # focus on the decade nearest the limit point
    edge = ts <= ts.min() * 100.0 if approach_zero else ts >= ts.max() / 100.0
    slope, r2 = _loglog_slope(ts[edge], qs[edge])
    want = 1.0 if approach_zero else -1.0  # q ~ t^{want * a}, a > 0 passes
    if slope is None:
        return "inconclusive", "too few usable samples"
    if r2 < _FIT_MIN_R2:
        # exponential growth bends the log-log line, but still rises
        near = ts <= ts.min() * 10.0 if approach_zero else ts >= ts.max() / 10.0
        q = qs[near][::-1] if approach_zero else qs[near]
        if q.size > 1 and np.all(np.diff(q) > 0.0) and q[-1] > 10.0 * q[0]:
            return "fail", "quotient rises toward the limit point"
        return "inconclusive", f"poor log-log fit (r2={r2:.3f})"
    if want * slope >= _SLOPE_TOL:
        return "pass", f"log-log slope {slope:.3f}"
    if want * slope <= -_SLOPE_TOL:
        return "fail", f"log-log slope {slope:.3f} has the wrong sign"
    return "inconclusive", f"log-log slope {slope:.3f} within +-{_SLOPE_TOL}"


def _diverges(ts, qs, approach_zero: bool):
    """Verdict on 'quotient -> +inf' via slope and per-decade increments.

    Returns (verdict, method, limit_estimate or None).
    """
    if not np.all(np.isfinite(qs)):
        # overflow to +inf counts as divergence if the finite part grows
        finite = np.isfinite(qs)
        if np.any(~finite) and np.all(qs[finite] >= 0):
            return "pass", "quotient overflows toward the limit", None
        return "inconclusive", "non-finite quotient samples", None
    order = np.argsort(ts)
    if approach_zero:
        order = order[::-1]  # walk toward t -> 0
    q = qs[order]
    t = ts[order]
    slope, r2 = _loglog_slope(t[-18:], q[-18:])
    if slope is not None and r2 >= _FIT_MIN_R2:
        growing = (slope <= -_SLOPE_TOL) if approach_zero else (slope >= _SLOPE_TOL)
        if growing and q[-1] > 0:
            return "pass", f"power divergence, log-log slope {slope:.3f}", None
    # per-decade increments toward the limit
    n_dec = max(int(round(math.log10(ts.max() / ts.min()))), 1)
    per_dec = max(len(q) // n_dec, 1)
    anchors = q[::per_dec] if len(q) > per_dec else q
    if len(anchors) < 4:
        return "inconclusive", "too few decades sampled", None
    inc = np.diff(anchors)
    last = inc[-3:]
    if np.all(last > 0):
        ratios = last[1:] / last[:-1]
        if np.all(ratios <= _GEOM_DECAY):
            rho = float(ratios[-1])
            est = float(anchors[-1] + last[-1] * rho / (1.0 - rho))
            return "fail", "increments decay geometrically", est
        if last[-1] >= 0.25 * float(np.max(np.abs(inc))):
            return "pass", "non-vanishing per-decade increments", None
        return "inconclusive", "increments shrinking but not geometrically", None
    if np.all(last <= 0):
        return "fail", "quotient decreasing toward the limit point", float(anchors[-1])
    return "inconclusive", "non-monotone quotient near the limit", None


def _worst(verdicts):
    """The verdict over both signs: fail if one fails, else inconclusive
    if one is, else pass."""
    for v in ("fail", "inconclusive"):
        if v in verdicts:
            return v
    return "pass"


def _scan(signed, vals, tol):
    """Witnesses, at most two per sign, where vals fails to rise along
    increasing |t|: a step vals[i+1] - vals[i] at most tol times the
    pair's magnitude.  tol > 0 asks for a strict rise (ties fail); tol < 0
    forgives a fall within rounding noise.  A step between infinities is
    NaN and yields no witness."""
    wit = []
    for t, v in zip(signed, vals):
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.diff(v)
        scale = np.maximum(np.abs(v[:-1]), np.abs(v[1:])) + 1e-300
        wit += [{"t": float(t[i]), "value": float(v[i])}
                for i in np.where(d <= scale * tol)[0][:2]]
    return wit


def _f2_planar(ts, fv):
    """The f2 entry at N = 2 from |f| on the unsaturated sample ts: pass
    on clean power growth over the last two decades; fail where the slope
    of log|f| in t^2 over the last decade (gamma for t^a exp(gamma t^2),
    t^(b-2) for exp(t^b)) does not fall or keeps 90 % in its Aitken
    limit; else inconclusive (undecidable by sampling)."""
    slope, r2 = _loglog_slope(ts[-2 * _PER_DECADE:], fv[-2 * _PER_DECADE:])
    if slope is not None and r2 >= 0.99:
        return {"verdict": "pass", "witnesses": _witness(ts[-6:], fv[-6:]),
                "method": f"clean power growth (exponent {slope:.2f}) up to "
                          f"t={ts[-1]:.0e}; subgaussian on sample"}
    pts = np.arange(fv.size - 1 - _PER_DECADE, fv.size, 3)
    if pts[0] >= 0 and np.all(fv[pts] > 0):
        rates = np.diff(np.log(fv[pts])) / np.diff(ts[pts] ** 2)
        d1, d2 = np.diff(rates)
        limit = rates[2] if d2 >= 0 else rates[2] - d2 * d2 / (d2 - d1) if d1 < d2 else 0.0
        if np.all(rates > 0) and limit >= 0.9 * rates[2]:
            return {"verdict": "fail", "witnesses": _witness(ts[pts[1:]], rates),
                    "method": f"gaussian-type growth exp({limit:.2e} t^2) "
                              f"below t={ts[-1]:.2e}"}
    return {"verdict": "inconclusive", "witnesses": _witness(ts[-6:], fv[-6:]),
            "method": "growth neither cleanly polynomial nor gaussian below "
                      "saturation; all-gamma limit undecidable by sampling"}


def check_conditions(nl: NonlinearitySpec, N: int) -> ConditionReport:
    """Numerically certify the hypotheses f0-f7, f6', and oddness.

    Limit hypotheses are decided from log-spaced samples over
    [_T_MIN, _T_MAX], monotonicity hypotheses by scanning; every verdict
    carries numeric witnesses.  f and F are evaluated once on +-t of that
    sample (one fused call per sign), and every hypothesis's quotient is
    built from those arrays.
    """
    n = int(_PER_DECADE * math.log10(_T_MAX / _T_MIN))
    ts = np.geomspace(_T_MIN, _T_MAX, n)
    signed = (ts, -ts)
    mc = 2.0 + 4.0 / N  # the mass-critical exponent
    two_star = 2.0 * N / (N - 2.0) if N >= 3 else None
    # f0 probes each point with increments 1e-6 and 1e-10 of max(1, |t|)
    probes = np.concatenate([np.linspace(-3.0, 3.0, 41), np.geomspace(1e-3, 1e3, 13),
                             -np.geomspace(1e-3, 1e3, 13)])
    step = np.maximum(1.0, np.abs(probes))
    odd_sample = np.concatenate([np.geomspace(1e-4, 1e4, 17), [0.5, 1.0, 2.0]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = nl.f(probes)
        gap_wide = np.abs(nl.f(probes + 1e-6 * step) - base)
        gap_narrow = np.abs(nl.f(probes + 1e-10 * step) - base)
        fs, Fs = zip(*(nl.f_and_F(t) for t in signed))
        fts = [fv * t for fv, t in zip(fs, signed)]
        tq = ts ** mc
        q1 = [np.abs(fv / ts ** (1.0 + 4.0 / N)) for fv in fs]
        q3 = [Fv / tq for Fv in Fs]
        gs = [(ft - 2.0 * Fv) / tq for ft, Fv in zip(fts, Fs)]
        hs = [(ft - mc * Fv) / t**2 for ft, Fv, t in zip(fts, Fs, signed)]
        if N >= 3:
            q2 = np.abs(fs[0] / ts ** (two_star - 1.0))
            q6 = fts[0] / ts**two_star
            margins = [(ft - two_star * Fv,
                        np.maximum(np.maximum(np.abs(ft), np.abs(two_star * Fv)), 1e-300))
                       for ft, Fv in zip(fts, Fs)]
        f_odd = nl.f(odd_sample)
        odd_gap = np.abs(nl.f(-odd_sample) + f_odd)
    entries = {}

    # f0: continuity probe at mixed sample points
    jump = ~np.isfinite(base) | ((gap_narrow > 1e-4 * np.maximum(np.abs(base), 1.0))
                                 & (gap_narrow > 0.5 * gap_wide))
    entries["f0"] = {
        "verdict": "fail" if jump.any() else "pass",
        "witnesses": [{"t": float(probes[i]), "value": float(base[i])}
                      for i in np.where(jump)[0][:4]],
        "method": "shrinking-increment continuity probe",
    }

    # f1: f(t)/|t|^{1+4/N} -> 0 as t -> 0 (both signs)
    res1 = [_limit_zero(ts, qv, approach_zero=True) for qv in q1]
    entries["f1"] = {"verdict": _worst([v for v, _ in res1]),
                     "witnesses": _witness(ts[:9], q1[0][:9]),
                     "method": "; ".join(m for _, m in res1)}

    # f2: growth at infinity, read on the samples before |f| saturates
    over = np.flatnonzero(~(np.abs(fs[0]) <= _F_SATURATION))
    end = int(over[0]) if over.size else n
    if N >= 3:
        v, m = _limit_zero(ts[:end], q2[:end], approach_zero=False)
        entries["f2"] = {"verdict": v, "witnesses": _witness(ts[:end][-9:], q2[:end][-9:]),
                         "method": m}
    elif N == 2:
        entries["f2"] = _f2_planar(ts[:end], np.abs(fs[0][:end]))
    else:
        entries["f2"] = {"verdict": "pass", "witnesses": [],
                         "method": "not applicable for N=1"}

    # f3: F/|t|^{2+4/N} -> +inf as t -> inf (both signs)
    res3 = [_diverges(ts, qv, approach_zero=False) for qv in q3]
    entries["f3"] = {"verdict": _worst([r[0] for r in res3]),
                     "witnesses": _witness(ts[-9:], q3[0][-9:]),
                     "method": res3[0][1]}

    # f4: g strictly increasing on (0, inf); strictly decreasing on
    # (-inf, 0) means g(-a) strictly increasing along increasing a = |t|
    wit4 = _scan(signed, gs, 1e-14)
    entries["f4"] = {
        "verdict": "fail" if wit4 else "pass",
        "witnesses": wit4,
        "method": "strict monotonicity scan of g on the sample",
    }

    # f5: f(t) t < 2* F(t) strictly (N >= 3).  Points where the margin
    # sits inside the double-precision equality band count as strictness
    # failures only at moderate |t|; below 1e-4 a sub-resolution margin is
    # consistent with a strict margin vanishing as t -> 0.
    if N >= 3:
        viol = []
        eq_band = 64.0 * np.finfo(float).eps
        for tt, (d, scale) in zip(signed, margins):
            finite = np.isfinite(d)
            wrong_sign = finite & (d > eq_band * scale)
            equality = finite & (np.abs(d) <= eq_band * scale) & (np.abs(tt) >= 1e-4)
            for i in np.where(wrong_sign | equality)[0][:4]:
                viol.append({"t": float(tt[i]), "value": float(d[i])})
        entries["f5"] = {
            "verdict": "fail" if viol else "pass",
            "witnesses": viol[:4],
            "method": "pointwise strict-inequality scan of f(t)t - 2* F(t); "
                      "equality at working precision counts as failure for |t| >= 1e-4",
        }
    else:
        entries["f5"] = {"verdict": "pass", "witnesses": [],
                         "method": f"not applicable for N={N}"}

    # f6 / f6': behavior of f(t)t/|t|^{2*} at t -> 0 (N >= 3)
    if N >= 3:
        v6, m6, est = _diverges(ts, q6, approach_zero=True)
        wit = _witness(ts[:9], q6[:9])
        if est is not None:
            wit.append({"t": 0.0, "value": est})
        entries["f6"] = {"verdict": v6, "witnesses": wit, "method": m6}
        if v6 == "pass":
            v6p, m6p = "fail", "quotient diverges at t -> 0"
        elif v6 == "fail":
            v6p, m6p = "pass", m6 + " (finite limsup)"
        else:
            v6p, m6p = "inconclusive", m6
        entries["f6p"] = {"verdict": v6p, "witnesses": wit, "method": m6p}
    else:
        na = {"verdict": "pass", "witnesses": [], "method": f"not applicable for N={N}"}
        entries["f6"] = dict(na)
        entries["f6p"] = dict(na)

    # f7: h(t) = [f(t)t - (2+4/N) F(t)]/t^2 nondecreasing on (0, inf),
    # nonincreasing on (-inf, 0)
    wit7 = _scan(signed, hs, -1e-10)
    entries["f7"] = {
        "verdict": "fail" if wit7 else "pass",
        "witnesses": wit7,
        "method": "monotonicity scan of [f(t)t-(2+4/N)F(t)]/t^2",
    }

    # oddness
    bad_odd = np.where(odd_gap > 1e-13 * (np.abs(f_odd) + 1e-300))[0]
    entries["odd"] = {
        "verdict": "fail" if bad_odd.size else "pass",
        "witnesses": [{"t": float(odd_sample[i]), "value": float(odd_gap[i])}
                      for i in bad_odd[:4]],
        "method": "pointwise f(-t) = -f(t) check",
    }

    return ConditionReport(
        name=nl.name, dimension=N, entries=entries,
        sampling={"t_min": _T_MIN, "t_max": _T_MAX, "count": n},
    )
