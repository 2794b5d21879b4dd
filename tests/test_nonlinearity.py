import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsground import builtin, check_conditions, f_tilde, g_quotient
from nlsground.expressions import compile_expression
from nlsground.nonlinearity import _dead_floor, from_callables

LOG2 = math.log(2.0)


def primitive_consistency(nl, n: int = 64, t_max: float = 1e3) -> float:
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


def not_passing(rep, hypotheses):
    """The hypotheses among `hypotheses` whose verdict is not pass."""
    return [h for h in hypotheses if rep.verdict(h) != "pass"]


def all_builtins():
    return [
        ("pure_power", 1, {"p": 8.0}),
        ("log_supercritical", 2, {}),
        ("log_supercritical", 3, {}),
        ("critical_piecewise", 5, {}),
        ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}),
    ]


def subcritical_cubic():
    """A mass-subcritical power: g decreases, so f4 fails."""
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** 1.0 * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.abs(t) ** 3.0 / 3.0

    return from_callables("subcritical_cubic", f, F)


def jumpy():
    """A cubic with a jump of 5 at t = 1: f0 fails."""
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 1.0, t**3 + 5.0, t**3)

    def F(t):
        t = np.asarray(t, dtype=float)
        return t**4 / 4.0 + np.where(t > 1.0, 5.0 * (t - 1.0), 0.0)

    return from_callables("jumpy", f, F)


def steep():
    """A ramp of slope 2e9 clipped to [-1, 1]: continuous, but at t = 0
    the narrow continuity increment moves f by 0.2 and the wide one by 1."""
    def f(t):
        return np.clip(2e9 * np.asarray(t, dtype=float), -1.0, 1.0)

    def F(t):
        a = np.abs(np.asarray(t, dtype=float))
        return np.where(a <= 0.5e-9, 1e9 * a * a, a - 0.25e-9)

    return from_callables("steep", f, F)


class TestFTilde:
    def test_zero_at_origin(self):
        for name, N, kw in all_builtins():
            nl = builtin(name, N, **kw)
            assert f_tilde(nl, 0.0) == 0.0

    def test_pure_power_value(self):
        nl = builtin("pure_power", 1, p=8.0)
        assert f_tilde(nl, 1.0) == pytest.approx(0.75)

    def test_log_example_n2(self):
        nl = builtin("log_supercritical", 2)
        assert float(nl.f(np.asarray(1.0))) == pytest.approx(4 * LOG2 + 0.5)
        assert float(nl.F(np.asarray(1.0))) == pytest.approx(LOG2)
        assert f_tilde(nl, 1.0) == pytest.approx(2 * LOG2 + 0.5)

    @given(t=st.floats(-50.0, 50.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition(self, t):
        nl = builtin("pure_power", 3, p=4.0)
        expect = float(nl.f(np.asarray(t)) * t - 2.0 * nl.F(np.asarray(t)))
        assert f_tilde(nl, t) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestGQuotient:
    def test_zero_continuation(self):
        nl = builtin("log_supercritical", 2)
        assert g_quotient(nl, 0.0, 2) == 0.0

    def test_pure_power_value(self):
        nl = builtin("pure_power", 1, p=8.0)
        assert g_quotient(nl, 2.0, 1) == pytest.approx(3.0)

    def test_log_monotone_witnesses(self):
        nl = builtin("log_supercritical", 2)
        g2, g1, g05 = (g_quotient(nl, t, 2) for t in (2.0, 1.0, 0.5))
        assert g2 > g1 > g05 > 0

    def test_vanishes_at_zero_for_f1_f4_builtins(self):
        for name, N, kw in all_builtins():
            nl = builtin(name, N, **kw)
            ts = np.geomspace(1e-6, 1e-2, 40)
            gs = np.abs(g_quotient(nl, ts, N))
            assert gs[0] < 1e-3
            assert gs[0] <= gs[-1]


class TestBuiltinConstruction:
    def test_log_alpha(self):
        assert builtin("log_supercritical", 3).params["alpha_N"] == pytest.approx(8 / 3)
        assert builtin("log_supercritical", 2).params["alpha_N"] == 1.0
        assert builtin("log_supercritical", 1).params["alpha_N"] == 1.0

    def test_critical_window_n5(self):
        nl = builtin("critical_piecewise", 5)
        assert nl.params["p_N"] == pytest.approx(3.12)
        assert 3.12 < nl.params["p"] < 10.0 / 3.0
        with pytest.raises(ValueError):
            builtin("critical_piecewise", 5, p=3.0)
        with pytest.raises(ValueError):
            builtin("critical_piecewise", 5, p=3.4)

    def test_pure_power_window(self):
        builtin("pure_power", 1, p=8.0)  # 8 > 6 = 2 + 4/1
        with pytest.raises(ValueError):
            builtin("pure_power", 1, p=5.0)
        with pytest.raises(ValueError):
            builtin("pure_power", 3, p=7.0)  # above 2* = 6

    def test_f6prime_params(self):
        nl = builtin("f6prime_example", 3)
        assert nl.params["beta_N"] == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValueError):
            builtin("f6prime_example", 3, beta_N=2.0)
        with pytest.raises(ValueError):
            builtin("f6prime_example", 3, beta=-1.0)
        for beta in (math.inf, float("1e400"), math.nan):
            with pytest.raises(ValueError, match=f"need finite beta > 0, got {beta}"):
                builtin("f6prime_example", 3, beta=beta)
        with pytest.raises(ValueError):
            builtin("f6prime_example", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("cubic_quintic", 3)

    def test_claimed_sets(self):
        # at N >= 3, alpha_N = 8/(N(N-2)) makes f(t)t/|t|^{2*} tend to 2*,
        # a finite limit where f6 asks for +inf
        log3 = builtin("log_supercritical", 3)
        assert "f6" not in log3.claimed
        assert check_conditions(log3, 3).verdict("f6") == "fail"
        cp = builtin("critical_piecewise", 5).claimed
        assert "f5" not in cp and "f4" in cp and "odd" in cp
        f6p = builtin("f6prime_example", 3).claimed
        assert "f6p" in f6p and "f5" in f6p


TINY = np.finfo(float).tiny


class TestDeadFloor:
    """Each builtin's dead floor t0: below it the bracket's integrands,
    the fused pair's |f t| and |F|, lie below 2^-1022, and the first |t|
    where either is normal lies within a factor 2 above it."""

    # the battery's and the benchmark's settings, the first |t| where f t
    # or F is normal (a dense scan), and two more dimensions
    CASES = [
        ("pure_power", 1, {"p": 8.0}, 3.49e-39),
        ("log_supercritical", 2, {}, 2.14e-62),
        ("critical_piecewise", 5, {}, 5.06e-93),
        ("f6prime_example", 3, {"beta": 1.0, "beta_N": 1.0 / 3.0}, 5.30e-52),
        ("log_supercritical", 3, {}, None),
        ("pure_power", 3, {"p": 4.5}, None),
    ]

    @staticmethod
    def dead(nl, t):
        """Per |t|: |f t| and |F| below 2^-1022 at +t and at -t."""
        out = np.ones(t.shape, dtype=bool)
        for sign in (1.0, -1.0):
            with np.errstate(all="ignore"):
                fv, F = nl.f_and_F(sign * t)
            out &= (np.abs(fv * t) < TINY) & (np.abs(F) < TINY)
        return out

    @pytest.mark.parametrize("name, N, params, first", CASES,
                             ids=[f"{c[0]}-N{c[1]}" for c in CASES])
    def test_dead_below_and_normal_within_a_factor_two(self, name, N, params, first):
        nl = builtin(name, N, **params)
        t0 = nl.dead_floor
        below = np.geomspace(5e-324, t0, 200001)[:-1]
        assert self.dead(nl, below).all()
        above = np.geomspace(t0, 2.0 * t0, 20001)
        live = ~self.dead(nl, above)
        assert live.any() and not live[0]
        if first is not None:
            assert above[np.argmax(live)] == pytest.approx(first, rel=0.01)

    def test_user_specs_carry_no_floor(self):
        cubic = subcritical_cubic()
        user = from_callables("user", compile_expression("abs(t)^6 * t"),
                              compile_expression("abs(t)^8 / 8"))
        assert cubic.dead_floor == 0.0 and user.dead_floor == 0.0

    def test_scan_edges(self):
        # a pair whose f t is live at 2^-1074 gets no floor, a normal f
        # whose f t is not does get one, NaN counts as live, and a pair
        # dead up to 1 gets the scan's top
        assert _dead_floor(lambda t: (np.full_like(t, 2.0**1000), 0.0 * t)) == 0.0
        assert _dead_floor(lambda t: (np.sign(t), 0.0 * t)) == 2.0**-1023
        assert _dead_floor(lambda t: (np.full_like(t, np.nan), 0.0 * t)) == 0.0
        assert _dead_floor(lambda t: (0.0 * t, 0.0 * t)) == 1.0


class TestStructuralInvariants:
    def test_superquadraticity(self):
        # f(t) t > (2 + 4/N) F(t) > 0 away from 0 (strict superquadraticity)
        for name, N, kw in all_builtins():
            nl = builtin(name, N, **kw)
            ts = np.concatenate([np.geomspace(1e-4, 1e4, 200),
                                 -np.geomspace(1e-4, 1e4, 200)])
            F = nl.F(ts)
            gap = nl.f(ts) * ts - (2.0 + 4.0 / N) * F
            assert np.all(F > 0)
            assert np.all(gap > 0)

    def test_oddness_exact(self):
        for name, N, kw in all_builtins():
            nl = builtin(name, N, **kw)
            ts = np.geomspace(1e-5, 1e5, 60)
            assert np.array_equal(nl.f(-ts), -nl.f(ts))

    def test_primitive_consistency(self):
        for name, N, kw in all_builtins():
            nl = builtin(name, N, **kw)
            assert primitive_consistency(nl, n=64) < 1e-8


class TestCheckConditions:
    def test_log_n2_passes_battery(self):
        rep = check_conditions(builtin("log_supercritical", 2), 2)
        assert not_passing(rep, ["f0", "f1", "f2", "f3", "f4", "f5", "f6"]) == []

    def test_log_n3_borderline_f6(self):
        # the quotient f(t) t / |t|^{2N/(N-2)} of the logarithmic example
        # tends to the finite constant 2* = 6 at N = 3 (the exponents
        # cancel exactly), so f6 fails and f6' holds
        rep = check_conditions(builtin("log_supercritical", 3), 3)
        assert not_passing(rep, ["f0", "f1", "f2", "f3", "f4", "f5"]) == []
        assert rep.verdict("f6") == "fail"
        assert rep.verdict("f6p") == "pass"
        limits = [w["value"] for w in rep.entries["f6"]["witnesses"] if w["t"] == 0.0]
        assert limits and limits[0] == pytest.approx(6.0, rel=1e-6)

    def test_critical_piecewise_fails_exactly_f5(self):
        rep = check_conditions(builtin("critical_piecewise", 5), 5)
        assert not_passing(rep, ["f0", "f1", "f2", "f3", "f4"]) == []
        assert rep.verdict("f5") == "fail"
        witnesses = rep.entries["f5"]["witnesses"]
        assert witnesses
        # equality witnesses live where f(t) t = 2* F(t) exactly
        assert all(0 < abs(w["t"]) <= 1.0 for w in witnesses)
        assert all(abs(w["value"]) < 1e-12 for w in witnesses)

    def test_f6prime_example_verdicts(self):
        rep = check_conditions(
            builtin("f6prime_example", 3, beta=1.0, beta_N=1.0 / 3.0), 3
        )
        assert not_passing(rep, ["f0", "f1", "f2", "f3", "f4", "f5"]) == []
        assert rep.verdict("f6p") == "pass"
        assert rep.verdict("f6") == "fail"

    def test_pure_power_all_pass(self):
        rep = check_conditions(builtin("pure_power", 1, p=8.0), 1)
        assert not_passing(rep, ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "odd"]) == []

    @pytest.mark.parametrize("f_expr, verdict, gamma", [
        # exp's argument is capped at 700, so |f| saturates near t = 26
        # here: only the samples below e^600 may decide
        ("t*exp(t^2)", "fail", 1.0),
        ("t*abs(t)^20*exp(0.5*t^2)", "fail", 0.5),
        ("t*exp(0.01*t^2)", "fail", 0.01),
        # subgaussian: the slope of log|f| in t^2 falls toward 0
        ("t*abs(t)^2*ln(1+abs(t))*exp(abs(t)^0.5)", "inconclusive", None),
        ("t*exp(abs(t))", "inconclusive", None),
    ])
    def test_planar_f2_reads_growth_below_saturation(self, f_expr, verdict, gamma):
        from nlsground.expressions import compile_expression

        nl = from_callables("growth", compile_expression(f_expr),
                            compile_expression("abs(t)^2"))
        entry = check_conditions(nl, 2).entries["f2"]
        assert entry["verdict"] == verdict, entry["method"]
        if gamma is not None:
            assert f"exp({gamma:.2e} t^2)" in entry["method"]
            assert entry["witnesses"]

    def test_f2_ignores_saturated_samples_at_n3(self):
        # exp(|t|) - 1 outgrows t^5, so f2 cannot pass; its samples past
        # the exp cap sit at e^700, whose quotient by t^5 falls like a power
        from nlsground.expressions import compile_expression

        nl = from_callables("growth", compile_expression("exp(abs(t)) - 1"),
                            compile_expression("abs(t)^2"))
        assert check_conditions(nl, 3).verdict("f2") == "fail"

    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("f_expr, verdict, method", [
        # exponential growth bends the log-log fit (r2 0.48-0.75), but its
        # quotient rises through the last decade below saturation
        ("exp(abs(t)) - 1", "fail", "quotient rises toward the limit point"),
        ("t*exp(t^2)", "fail", "quotient rises toward the limit point"),
        # clean power fits keep their verdict and method
        ("abs(t)^6*t", "fail", "has the wrong sign"),
        ("t*ln(1+abs(t))", "pass", "log-log slope"),
    ])
    def test_f2_reads_growth_at_n3_and_above(self, N, f_expr, verdict, method):
        from nlsground.expressions import compile_expression

        nl = from_callables("growth", compile_expression(f_expr),
                            compile_expression("abs(t)^2"))
        entry = check_conditions(nl, N).entries["f2"]
        assert entry["verdict"] == verdict
        assert method in entry["method"]

    def test_f4_violation_detected(self):
        # mass-subcritical power: g is decreasing, f4 must fail
        rep = check_conditions(subcritical_cubic(), 3)
        assert rep.verdict("f4") == "fail"
        assert rep.entries["f4"]["witnesses"]

    def test_discontinuity_detected(self):
        rep = check_conditions(jumpy(), 1)
        assert rep.verdict("f0") == "fail"

    def test_steep_continuous_spec_passes_f0(self):
        # the narrow gap is a fifth of the wide one, so the ratio rule
        # (narrow above half the wide gap) reads a steep ramp, not a jump
        assert check_conditions(steep(), 1).verdict("f0") == "pass"

    def test_report_serialization(self):
        rep = check_conditions(builtin("pure_power", 1, p=8.0), 1)
        data = json.loads(json.dumps(rep.as_dict()))
        assert data["dimension"] == 1
        for entry in data["hypotheses"].values():
            assert entry["verdict"] in ("pass", "fail", "inconclusive")
            assert "method" in entry and "witnesses" in entry
        failing = check_conditions(builtin("critical_piecewise", 5), 5)
        for h, entry in failing.entries.items():
            if failing.verdict(h) == "fail":
                assert entry["witnesses"], f"{h} fail lacks witnesses"


# ---------------------------------------------------------------------------
# the checker before it sampled f and F once: every hypothesis called f and
# F on its own, the continuity probe point by point.  Kept as the
# reference the single-sample checker must reproduce bit for bit.


# the two scans as the checker called them, with increasing=True
def _parent_scan_strict(vals):
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) + 1e-300
    return np.where(d <= scale * 1e-14)[0]


def _parent_scan_loose(vals):
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])) + 1e-300
    return np.where(d < -scale * 1e-10)[0]


def _parent_h_schwarz(nl, t, N: int):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (nl.f(t) * t - (2.0 + 4.0 / N) * nl.F(t)) / t**2


def parent_check_conditions(nl, N: int):
    from nlsground.nonlinearity import (
        _F_SATURATION, _PER_DECADE, _T_MAX, _T_MIN, ConditionReport, _diverges,
        _f2_planar, _limit_zero, _witness,
    )

    n = int(_PER_DECADE * math.log10(_T_MAX / _T_MIN))
    ts = np.geomspace(_T_MIN, _T_MAX, n)
    entries = {}

    def quotient(fn, denom_exp, sign=1.0):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(sign * ts) / ts**denom_exp

    two_star = 2.0 * N / (N - 2.0) if N >= 3 else None

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

    # f2 reads f only before it saturates, and the planar decision is
    # _f2_planar's; the reference supplies its own sample of f
    with np.errstate(over="ignore"):
        fv = np.abs(nl.f(ts))
    end = next((i for i, x in enumerate(fv) if not x <= _F_SATURATION), ts.size)
    if N >= 3:
        q = np.abs(quotient(nl.f, two_star - 1.0))[:end]
        v, m = _limit_zero(ts[:end], q, approach_zero=False)
        entries["f2"] = {"verdict": v, "witnesses": _witness(ts[:end][-9:], q[-9:]),
                         "method": m}
    elif N == 2:
        entries["f2"] = _f2_planar(ts[:end], fv[:end])
    else:
        entries["f2"] = {"verdict": "pass", "witnesses": [],
                         "method": "not applicable for N=1"}

    res3 = []
    for sign in (1.0, -1.0):
        q = quotient(nl.F, 2.0 + 4.0 / N, sign)
        res3.append(_diverges(ts, q, approach_zero=False))
    v = ("fail" if any(r[0] == "fail" for r in res3)
         else "inconclusive" if any(r[0] == "inconclusive" for r in res3) else "pass")
    q3 = quotient(nl.F, 2.0 + 4.0 / N)
    entries["f3"] = {"verdict": v, "witnesses": _witness(ts[-9:], q3[-9:]),
                     "method": res3[0][1]}

    gpos = g_quotient(nl, ts, N)
    gneg = g_quotient(nl, -ts, N)
    bad_pos = _parent_scan_strict(gpos)
    bad_neg = _parent_scan_strict(gneg)
    wit4 = [{"t": float(ts[i]), "value": float(gpos[i])} for i in bad_pos[:2]]
    wit4 += [{"t": float(-ts[i]), "value": float(gneg[i])} for i in bad_neg[:2]]
    entries["f4"] = {
        "verdict": "fail" if (bad_pos.size or bad_neg.size) else "pass",
        "witnesses": wit4,
        "method": "strict monotonicity scan of g on the sample",
    }

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

    hpos = _parent_h_schwarz(nl, ts, N)
    hneg = _parent_h_schwarz(nl, -ts, N)
    bad7 = list(_parent_scan_loose(hpos))
    bad7n = list(_parent_scan_loose(hneg))
    wit7 = [{"t": float(ts[i]), "value": float(hpos[i])} for i in bad7[:2]]
    wit7 += [{"t": float(-ts[i]), "value": float(hneg[i])} for i in bad7n[:2]]
    entries["f7"] = {
        "verdict": "fail" if (bad7 or bad7n) else "pass",
        "witnesses": wit7,
        "method": "monotonicity scan of [f(t)t-(2+4/N)F(t)]/t^2",
    }

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
        sampling={"t_min": _T_MIN, "t_max": _T_MAX, "count": n},
    )


README_SPEC = ("abs(t)^6 * t", "abs(t)^8 / 8")
# not odd: fails most of the battery, f4 and f7 with witnesses on both
# signs
EXP_SPEC = ("exp(t) - 1", "exp(t) - 1 - t")


def builtin_cases():
    """The four builtins across the dimensions they accept."""
    for N in range(1, 7):
        lo = 2.0 + 4.0 / N
        hi = 2.0 * N / (N - 2.0) if N >= 3 else 3.0 * lo
        for p in (0.75 * lo + 0.25 * hi, 0.5 * (lo + hi)):
            yield builtin("pure_power", N, p=p), N
        yield builtin("log_supercritical", N), N
        if N >= 3:
            yield builtin("critical_piecewise", N), N
            yield builtin("f6prime_example", N), N
            yield builtin("f6prime_example", N, beta=2.0, beta_N=2.0 / (N * (N - 2.0))), N


def user_cases():
    from nlsground.expressions import compile_expression

    for name, (fe, Fe) in (("readme", README_SPEC), ("exp", EXP_SPEC)):
        nl = from_callables(name, compile_expression(fe), compile_expression(Fe))
        for N in (1, 2, 3, 5):
            yield nl, N
    for nl in (jumpy(), subcritical_cubic()):
        for N in (1, 2, 3, 5):
            yield nl, N


class TestSingleSampleChecker:
    def test_matches_parent_checker(self):
        for nl, N in [*builtin_cases(), *user_cases()]:
            got = json.dumps(check_conditions(nl, N).as_dict(), sort_keys=True)
            ref = json.dumps(parent_check_conditions(nl, N).as_dict(), sort_keys=True)
            assert got == ref, (nl, N)

    def test_exp_spec_fails_with_witnesses(self):
        # the comparison above covers failing witnesses, not only passes
        from nlsground.expressions import compile_expression

        nl = from_callables("exp", *map(compile_expression, EXP_SPEC))
        rep = check_conditions(nl, 3)
        for h in ("f1", "f3", "f4", "f5", "f7", "odd"):
            assert rep.verdict(h) == "fail", h
            assert rep.entries[h]["witnesses"], h
        for h in ("f4", "f7"):
            assert {w["t"] > 0 for w in rep.entries[h]["witnesses"]} == {True, False}, h

    def test_exp_spec_checks_without_warnings(self):
        # g and h overflow to inf on this spec; the scans' steps between
        # infinities are NaN and must not reach the user as warnings
        from nlsground.expressions import compile_expression

        nl = from_callables("exp", *map(compile_expression, EXP_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_conditions(nl, 3)

    def test_samples_f_and_F_once(self):
        from nlsground.expressions import compile_expression

        specs = [(builtin(name, N, **kw), N) for name, N, kw in all_builtins()]
        specs.append((from_callables("readme", *map(compile_expression, README_SPEC)), 1))
        for nl, N in specs:
            calls = {"f": 0, "F": 0}

            def counted(fn, key):
                def wrapped(t):
                    calls[key] += 1
                    return fn(t)
                return wrapped

            check_conditions(from_callables(nl.name, counted(nl.f, "f"),
                                            counted(nl.F, "F")), N)
            assert calls["f"] <= 8 and calls["F"] <= 2, (nl, calls)
