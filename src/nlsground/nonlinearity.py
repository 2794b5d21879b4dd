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

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

_SLOPE_TOL = 0.1
_FIT_MIN_R2 = 0.9
_GEOM_DECAY = 0.6


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f with analytic primitive F and claimed hypotheses."""

    name: str
    f: callable
    F: callable
    claimed: frozenset
    params: dict = field(default_factory=dict)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"NonlinearitySpec({self.name}, {ps})"


@dataclass
class ConditionReport:
    """Per-hypothesis verdicts with numeric witnesses."""

    name: str
    dimension: int
    entries: dict  # hypothesis -> {"verdict", "witnesses", "method"}
    sampling: dict

    def verdict(self, hypothesis: str) -> str:
        return self.entries[hypothesis]["verdict"]

    def failures(self) -> list:
        return [h for h, e in self.entries.items() if e["verdict"] == "fail"]

    def all_pass(self, hypotheses) -> bool:
        return all(self.entries[h]["verdict"] == "pass" for h in hypotheses)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "sampling": self.sampling,
            "hypotheses": self.entries,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, **kw)


def f_tilde(nl: NonlinearitySpec, t):
    """F_tilde(t) = f(t) t - 2 F(t)."""
    t = np.asarray(t, dtype=float)
    return nl.f(t) * t - 2.0 * nl.F(t)


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


def _h_schwarz(nl: NonlinearitySpec, t, N: int):
    """h(t) = [f(t)t - (2+4/N) F(t)]/t^2, the f7 monotonicity quantity."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (nl.f(t) * t - (2.0 + 4.0 / N) * nl.F(t)) / t**2


# ---------------------------------------------------------------------------
# builtins


def _pure_power(N: int, p: float) -> NonlinearitySpec:
    lo = 2.0 + 4.0 / N
    hi = 2.0 * N / (N - 2.0) if N >= 3 else math.inf
    if not (lo < p < hi):
        raise ValueError(
            f"pure_power requires {lo} < p < {hi} in dimension {N}, got p={p}"
        )

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** (p - 2.0) * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** p / p

    return NonlinearitySpec(
        name="pure_power", f=f, F=F,
        claimed=frozenset({"f0", "f1", "f2", "f3", "f4", "f5", "f6", "odd"}),
        params={"N": N, "p": p},
    )


def _log_supercritical(N: int) -> NonlinearitySpec:
    alpha = 1.0 if N <= 2 else 8.0 / (N * (N - 2.0))
    q = 2.0 + 4.0 / N

    def f(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) ** alpha
        return (q * np.log1p(a) + alpha * a / (1.0 + a)) * np.abs(t) ** (4.0 / N) * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** q * np.log1p(np.abs(t) ** alpha)

    return NonlinearitySpec(
        name="log_supercritical", f=f, F=F,
        claimed=frozenset({"f0", "f1", "f2", "f3", "f4", "f5", "f6", "odd"}),
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

    def f(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        return np.where(a <= 1.0, a ** (two_star - 2.0), a ** (p - 2.0)) * t

    def F(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        inner = a**two_star / two_star
        outer = 1.0 / two_star + (np.where(a > 1.0, a, 1.0) ** p - 1.0) / p
        return np.where(a <= 1.0, inner, outer)

    return NonlinearitySpec(
        name="critical_piecewise", f=f, F=F,
        claimed=frozenset({"f0", "f1", "f2", "f3", "f4", "odd"}),
        params={"N": N, "p": p, "p_N": p_N},
    )


def _f6prime_example(N: int, beta: float = 1.0, beta_N: float | None = None) -> NonlinearitySpec:
    if N < 3:
        raise ValueError("f6prime_example requires N >= 3")
    cap = 4.0 / (N * (N - 2.0))
    if beta_N is None:
        beta_N = cap
    if not beta > 0:
        raise ValueError(f"need beta > 0, got {beta}")
    if not (0.0 < beta_N <= cap):
        raise ValueError(f"need beta_N in (0, {cap}], got {beta_N}")
    two_star = 2.0 * N / (N - 2.0)

    def f(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) ** beta_N
        damp = 1.0 - beta_N * (N - 2.0) * a / (2.0 * N * (1.0 + a))
        return beta * damp * np.abs(t) ** (4.0 / (N - 2.0)) * t / (1.0 + a)

    def F(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) ** beta_N
        return beta * (N - 2.0) * np.abs(t) ** two_star / (2.0 * N * (1.0 + a))

    return NonlinearitySpec(
        name="f6prime_example", f=f, F=F,
        claimed=frozenset({"f0", "f1", "f2", "f3", "f4", "f5", "f6p", "odd"}),
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


def from_callables(name: str, f, F, claimed=(), params=None) -> NonlinearitySpec:
    """Wrap user-supplied callables (e.g. parsed expressions) as a spec."""
    return NonlinearitySpec(
        name=name, f=f, F=F, claimed=frozenset(claimed), params=dict(params or {})
    )


def primitive_consistency(nl: NonlinearitySpec, n: int = 64, t_max: float = 1e3) -> float:
    """Max relative defect |F(t) - int_0^t f| / (1 + |F(t)|) over sampled t.

    Guards against transcription errors between the analytic F and f.
    """
    worst = 0.0
    ts = np.concatenate([np.geomspace(1e-3, t_max, n // 2),
                         -np.geomspace(1e-3, t_max, n // 2)])
    fn = lambda x: float(nl.f(np.asarray(x, dtype=float)))
    for t in ts:
        val, _ = quad(fn, 0.0, t, limit=200)
        ref = float(nl.F(np.asarray(t)))
        worst = max(worst, abs(ref - val) / (1.0 + abs(ref)))
    return worst


# ---------------------------------------------------------------------------
# verdict machinery


def _witness(ts, qs, k=4):
    idx = np.linspace(0, len(ts) - 1, min(k, len(ts))).astype(int)
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
    """Verdict on 'quotient -> 0' as t -> 0 (approach_zero) or t -> inf."""
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


def _scan_strict(ts, vals, increasing: bool):
    """Indices where strict monotonicity fails (ties count as failures)."""
    d = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) + 1e-300
    if increasing:
        return np.where(d <= scale * 1e-14)[0]
    return np.where(d >= -scale * 1e-14)[0]


def _scan_loose(ts, vals, increasing: bool):
    """Indices violating non-strict monotonicity beyond rounding noise."""
    d = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) + 1e-300
    if increasing:
        return np.where(d < -scale * 1e-10)[0]
    return np.where(d > scale * 1e-10)[0]


def check_conditions(nl: NonlinearitySpec, N: int, t_min: float = 1e-6,
                     t_max: float = 1e6, per_decade: int = 9) -> ConditionReport:
    """Numerically certify the hypotheses f0-f7, f6', and oddness.

    Limit hypotheses are decided from log-spaced samples, monotonicity
    hypotheses by scanning; every verdict carries numeric witnesses.  The
    sampling range must span at least [1e-6, 1e6].
    """
    if t_min > 1e-6 or t_max < 1e6:
        raise ValueError("sampling range must span at least [1e-6, 1e6]")
    n = max(int(per_decade * math.log10(t_max / t_min)), 24)
    ts = np.geomspace(t_min, t_max, n)
    entries = {}

    def quotient(fn, denom_exp, sign=1.0):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(sign * ts) / ts**denom_exp

    two_star = 2.0 * N / (N - 2.0) if N >= 3 else None

    # f0: continuity probe at mixed sample points
    probes = np.concatenate([np.linspace(-3.0, 3.0, 41), np.geomspace(1e-3, 1e3, 13),
                             -np.geomspace(1e-3, 1e3, 13)])
    jumps = []
    for x in probes:
        base = float(nl.f(np.asarray(x)))
        if not math.isfinite(base):
            jumps.append({"t": float(x), "value": base})
            continue
        deltas = [1e-6, 1e-8, 1e-10]
        gaps = [abs(float(nl.f(np.asarray(x + d * max(1.0, abs(x))))) - base)
                for d in deltas]
        local = max(abs(base), 1.0)
        if gaps[-1] > 1e-4 * local and gaps[-1] > 0.5 * gaps[0]:
            jumps.append({"t": float(x), "value": base})
    entries["f0"] = {
        "verdict": "fail" if jumps else "pass",
        "witnesses": jumps[:4],
        "method": "shrinking-increment continuity probe",
    }

    # f1: f(t)/|t|^{1+4/N} -> 0 as t -> 0 (both signs)
    verdicts, methods = [], []
    for sign in (1.0, -1.0):
        q = np.abs(quotient(nl.f, 1.0 + 4.0 / N, sign))
        v, m = _limit_zero(ts, q, approach_zero=True)
        verdicts.append(v)
        methods.append(m)
    v = ("fail" if "fail" in verdicts
         else "inconclusive" if "inconclusive" in verdicts else "pass")
    q0 = np.abs(quotient(nl.f, 1.0 + 4.0 / N))
    entries["f1"] = {"verdict": v, "witnesses": _witness(ts[:9], q0[:9]),
                     "method": "; ".join(methods)}

    # f2: growth at infinity
    if N >= 3:
        q = np.abs(quotient(nl.f, two_star - 1.0))
        v, m = _limit_zero(ts, q, approach_zero=False)
        entries["f2"] = {"verdict": v, "witnesses": _witness(ts[-9:], q[-9:]),
                         "method": m}
    elif N == 2:
        with np.errstate(over="ignore"):
            fv = np.abs(nl.f(ts))
        slope, r2 = _loglog_slope(ts[-2 * per_decade:], fv[-2 * per_decade:])
        if slope is not None and r2 >= 0.99 and np.all(np.isfinite(fv)):
            entries["f2"] = {
                "verdict": "pass",
                "witnesses": _witness(ts[-6:], fv[-6:]),
                "method": f"clean power growth (exponent {slope:.2f}) up to "
                          f"t={ts.max():.0e}; subgaussian on sample",
            }
        else:
            # try log f ~ gamma t^2: genuine Moser-Trudinger-type growth
            ok = np.isfinite(fv) & (fv > 0)
            gam = None
            if ok.sum() > 4:
                x, y = ts[ok][-12:] ** 2, np.log(fv[ok][-12:])
                A = np.vstack([x, np.ones_like(x)]).T
                coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
                gam = float(coef[0])
            if gam is not None and gam > 0:
                entries["f2"] = {
                    "verdict": "fail",
                    "witnesses": _witness(ts[-6:], fv[-6:]),
                    "method": f"gaussian-type growth exp({gam:.2e} t^2) detected",
                }
            else:
                entries["f2"] = {
                    "verdict": "inconclusive",
                    "witnesses": _witness(ts[-6:], fv[-6:]),
                    "method": "growth neither cleanly polynomial nor gaussian; "
                              "all-gamma limit undecidable by sampling",
                }
    else:
        entries["f2"] = {"verdict": "pass", "witnesses": [],
                         "method": "not applicable for N=1"}

    # f3: F/|t|^{2+4/N} -> +inf as t -> inf (both signs)
    res3 = []
    for sign in (1.0, -1.0):
        q = quotient(nl.F, 2.0 + 4.0 / N, sign)
        res3.append(_diverges(ts, q, approach_zero=False))
    v = ("fail" if any(r[0] == "fail" for r in res3)
         else "inconclusive" if any(r[0] == "inconclusive" for r in res3) else "pass")
    q3 = quotient(nl.F, 2.0 + 4.0 / N)
    entries["f3"] = {"verdict": v, "witnesses": _witness(ts[-9:], q3[-9:]),
                     "method": res3[0][1]}

    # f4: g strictly increasing on (0, inf); strictly decreasing on
    # (-inf, 0) means g(-a) strictly increasing along increasing a = |t|
    gpos = g_quotient(nl, ts, N)
    gneg = g_quotient(nl, -ts, N)
    bad_pos = _scan_strict(ts, gpos, increasing=True)
    bad_neg = _scan_strict(ts, gneg, increasing=True)
    wit4 = [{"t": float(ts[i]), "value": float(gpos[i])} for i in bad_pos[:2]]
    wit4 += [{"t": float(-ts[i]), "value": float(gneg[i])} for i in bad_neg[:2]]
    entries["f4"] = {
        "verdict": "fail" if (bad_pos.size or bad_neg.size) else "pass",
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
        for sign in (1.0, -1.0):
            tt = sign * ts
            with np.errstate(over="ignore", invalid="ignore"):
                d = nl.f(tt) * tt - two_star * nl.F(tt)
                scale = np.maximum(
                    np.maximum(np.abs(nl.f(tt) * tt), np.abs(two_star * nl.F(tt))),
                    1e-300,
                )
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q6 = nl.f(ts) * ts / ts**two_star
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

    # f7: h nondecreasing on (0, inf), nonincreasing on (-inf, 0)
    hpos = _h_schwarz(nl, ts, N)
    hneg = _h_schwarz(nl, -ts, N)
    bad7 = list(_scan_loose(ts, hpos, increasing=True))
    bad7n = list(_scan_loose(ts, hneg, increasing=True))
    wit7 = [{"t": float(ts[i]), "value": float(hpos[i])} for i in bad7[:2]]
    wit7 += [{"t": float(-ts[i]), "value": float(hneg[i])} for i in bad7n[:2]]
    entries["f7"] = {
        "verdict": "fail" if (bad7 or bad7n) else "pass",
        "witnesses": wit7,
        "method": "monotonicity scan of [f(t)t-(2+4/N)F(t)]/t^2",
    }

    # oddness
    sample = np.concatenate([np.geomspace(1e-4, 1e4, 17), [0.5, 1.0, 2.0]])
    with np.errstate(over="ignore"):
        odd_gap = np.abs(nl.f(-sample) + nl.f(sample))
        odd_scale = np.abs(nl.f(sample)) + 1e-300
    bad_odd = np.where(odd_gap > 1e-13 * odd_scale)[0]
    entries["odd"] = {
        "verdict": "fail" if bad_odd.size else "pass",
        "witnesses": [{"t": float(sample[i]), "value": float(odd_gap[i])}
                      for i in bad_odd[:4]],
        "method": "pointwise f(-t) = -f(t) check",
    }

    return ConditionReport(
        name=nl.name, dimension=N, entries=entries,
        sampling={"t_min": t_min, "t_max": t_max, "count": int(n)},
    )
