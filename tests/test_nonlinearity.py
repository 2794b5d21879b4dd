import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlsground import builtin, check_conditions, f_tilde, g_quotient
from nlsground.nonlinearity import from_callables

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
        with pytest.raises(ValueError):
            builtin("f6prime_example", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("cubic_quintic", 3)

    def test_claimed_sets(self):
        assert "f6" in builtin("log_supercritical", 3).claimed
        cp = builtin("critical_piecewise", 5).claimed
        assert "f5" not in cp and "f4" in cp and "odd" in cp
        f6p = builtin("f6prime_example", 3).claimed
        assert "f6p" in f6p and "f5" in f6p


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

    def test_f4_violation_detected(self):
        # mass-subcritical power: g is decreasing, f4 must fail
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.abs(t) ** 1.0 * t

        def F(t):
            t = np.asarray(t, dtype=float)
            return np.abs(t) ** 3.0 / 3.0

        rep = check_conditions(from_callables("subcritical_cubic", f, F), 3)
        assert rep.verdict("f4") == "fail"
        assert rep.entries["f4"]["witnesses"]

    def test_discontinuity_detected(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 1.0, t**3 + 5.0, t**3)

        def F(t):
            t = np.asarray(t, dtype=float)
            return t**4 / 4.0 + np.where(t > 1.0, 5.0 * (t - 1.0), 0.0)

        rep = check_conditions(from_callables("jumpy", f, F), 1)
        assert rep.verdict("f0") == "fail"

    def test_report_serialization(self):
        rep = check_conditions(builtin("pure_power", 1, p=8.0), 1)
        data = json.loads(rep.to_json())
        assert data["dimension"] == 1
        for entry in data["hypotheses"].values():
            assert entry["verdict"] in ("pass", "fail", "inconclusive")
            assert "method" in entry and "witnesses" in entry
        failing = check_conditions(builtin("critical_piecewise", 5), 5)
        for h, entry in failing.entries.items():
            if failing.verdict(h) == "fail":
                assert entry["witnesses"], f"{h} fail lacks witnesses"
