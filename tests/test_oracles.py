import math
from math import gamma, pi, sqrt

import numpy as np
import pytest

from nlsground.oracles import (
    Bubble,
    OracleTable,
    Soliton1D,
    critical_grad_norm_sq,
    gn_check,
)


def sech_moment(a):
    """int_R sech^a(y) dy = sqrt(pi) Gamma(a/2) / Gamma((a+1)/2)."""
    return sqrt(pi) * gamma(a / 2.0) / gamma((a + 1.0) / 2.0)


class TestSoliton1D:
    def test_mass_against_gamma_closed_form(self):
        # w = (4 mu)^{1/6} sech^{1/3}(3 sqrt(mu) x) for p = 8
        s = Soliton1D(8.0, 1.0)
        exact = 4.0 ** (1.0 / 3.0) / 3.0 * sech_moment(2.0 / 3.0)
        assert abs(s.mass - exact) < 1e-12

    def test_grad_norm_against_gamma_closed_form(self):
        s = Soliton1D(8.0, 1.0)
        exact = 4.0 ** (1.0 / 3.0) / 3.0 * (
            sech_moment(2.0 / 3.0) - sech_moment(8.0 / 3.0)
        )
        assert abs(s.grad_norm_sq - exact) < 1e-10

    def test_pde_residual_below_1e_10(self):
        for mu in (0.5, 1.0, 121.6):
            assert Soliton1D(8.0, mu).pde_residual() < 1e-10

    def test_pohozaev_identity(self):
        # within the rounding bound, also where A^p and 1/B alone overflow
        # or underflow a double
        for p, mu in ((7.0, 2.0), (8.0, 1.0), (10.0, 0.25), (6.5, 1e300), (7.0, 1e300),
                      (14.0, 1e300), (8.0, 1e-300)):
            s = Soliton1D(p, mu)
            assert all(math.isfinite(v) for v in s.table().values.values())
            assert abs(s.pohozaev) <= s.error_bounds["pohozaev"]

    def test_mass_scaling_law(self):
        p = 8.0
        gam = Soliton1D.mass_exponent(p)
        m1 = Soliton1D(p, 1.0).mass
        for mu in (0.3, 4.0, 50.0):
            assert Soliton1D(p, mu).mass == pytest.approx(
                mu**gam * m1, rel=1e-11
            )

    def test_energy_identity_p8(self):
        # at p = 8 the manifold identities force E = m/10 for every mu
        for mu in (1.0, 9.0):
            s = Soliton1D(8.0, mu)
            assert s.action == pytest.approx(s.mass * mu / 10.0, rel=1e-13)

    def test_inverse_mass_map(self):
        p = 8.0
        mu = Soliton1D.mu_for_mass(p, 1.0)
        assert Soliton1D(p, mu).mass == pytest.approx(1.0, rel=1e-13)

    def test_energy_mass_slope(self):
        assert Soliton1D.energy_mass_slope(8.0) == pytest.approx(-5.0)
        assert Soliton1D.energy_mass_slope(10.0) == pytest.approx(-3.0)

    def test_rejects_subcritical_exponent(self):
        with pytest.raises(ValueError):
            Soliton1D(5.0, 1.0)
        with pytest.raises(ValueError):
            Soliton1D(8.0, -1.0)

    @pytest.mark.parametrize("p, mu", [(8.0, math.inf), (8.0, math.nan), (math.inf, 1.0)])
    def test_rejects_non_finite_parameters(self, p, mu):
        # they would put NaN into the table, which JSON cannot hold
        with pytest.raises(ValueError, match="finite"):
            Soliton1D(p, mu)

    def test_table_shape(self):
        t = Soliton1D(8.0, 2.0).table()
        assert isinstance(t, OracleTable)
        d = t.as_dict()
        assert set(d["values"]) == {"mass", "action", "grad_norm_sq", "pohozaev"}
        assert all(k in d["error_bounds"] for k in d["values"])


class TestBubble:
    def test_unit_mass_closed_form_n5(self):
        # ||U||^2 = omega_4 [15]^{3/2} * 3 pi/16 = (pi^3/2) 15^{3/2}
        b = Bubble(5, 1.0)
        assert abs(b.unit_mass / ((pi**3 / 2.0) * 15.0**1.5) - 1) < 1e-12

    def test_sobolev_level_closed_form_n5(self):
        level, bound = critical_grad_norm_sq(5)
        exact = (8.0 / 3.0) * pi**2 * 15.0**1.5 * 9.0 * 5.0 * pi / 256.0
        assert abs(level - exact) < 1e-9
        assert bound < 1e-9

    def test_sobolev_level_closed_form_n3(self):
        level, _ = critical_grad_norm_sq(3)
        assert abs(level / (0.75 * sqrt(3.0) * pi**2) - 1) < 1e-12

    def test_mass_scales_linearly_in_eps(self):
        b1 = Bubble(5, 1.0)
        b9 = Bubble(5, 9.0)
        assert b9.mass == pytest.approx(9.0 * b1.mass, rel=1e-12)
        assert b9.mass == pytest.approx(9.0 * b9.unit_mass, rel=1e-12)

    def test_action_independent_of_eps(self):
        a = Bubble(5, 0.5).action
        b = Bubble(5, 40.0).action
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(Bubble(5, 1.0).grad_norm_sq / 5.0, rel=1e-12)

    def test_profile_bounded_by_one_at_minimal_mass(self):
        m_N = Bubble.minimal_mass(5)
        eps = Bubble.eps_for_mass(5, m_N)
        assert eps == pytest.approx(5.0 * 3.0, rel=1e-12)  # eps = N(N-2)
        b = Bubble(5, eps)
        r = np.geomspace(1e-6, 1e4, 500)
        vals = b.profile(np.concatenate([[0.0], r]))
        assert np.all(vals > 0)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            Bubble(4, 1.0)
        with pytest.raises(ValueError):
            Bubble(3, 1.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0])
    def test_rejects_eps_outside_positive_finite(self, eps):
        with pytest.raises(ValueError, match="finite eps"):
            Bubble(5, eps)


def gauss_legendre(a, b, panels):
    """Composite 12-point Gauss-Legendre nodes and weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(a, b, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


class TestQuadratureReference:
    """The closed forms against composite Gauss-Legendre quadrature of the
    profiles' own integrands."""

    @pytest.mark.parametrize("p, mu", [(6.5, 0.25), (7.0, 1.0), (8.0, 9.0),
                                       (10.0, 121.6), (14.0, 1.0), (40.0, 2.0)])
    def test_soliton(self, p, mu):
        # w = A sech^k(B x); in y = B x the integrands are powers of sech
        # and tanh, even in y, and sech^{2k}(y) < 2 e^{-2ky} is below
        # 1e-20 past y = 24/k
        k = 2.0 / (p - 2.0)
        A, B = (p * mu / 2.0) ** (k / 2.0), sqrt(mu) / k
        y, w = gauss_legendre(0.0, 24.0 / k, int(24.0 / k) + 1)
        sech = 2.0 * np.exp(-y) / (1.0 + np.exp(-2.0 * y))
        mass = 2.0 * A**2 / B * np.dot(w, sech ** (2.0 * k))
        grad = 2.0 * A**2 * B * k**2 * np.dot(w, sech ** (2.0 * k) * np.tanh(y) ** 2)
        potential = 2.0 * A**p / (p * B) * np.dot(w, sech ** (p * k))
        s = Soliton1D(p, mu)
        assert s.mass == pytest.approx(mass, rel=1e-13)
        assert s.grad_norm_sq == pytest.approx(grad, rel=1e-13)
        assert s.action == pytest.approx(0.5 * grad - potential, rel=1e-13)

    @staticmethod
    def half_line(fn):
        """int_0^inf fn(r) dr, as int_0^{pi/2} fn(tan t) sec^2 t dt."""
        t, w = gauss_legendre(0.0, 0.5 * pi, 40)
        return float(np.dot(w, fn(np.tan(t)) / np.cos(t) ** 2))

    @pytest.mark.parametrize("N", [5, 6, 7, 8])
    def test_bubble(self, N):
        # U = c (1+r^2)^{-(N-2)/2}, c^2 = [N(N-2)]^{(N-2)/2}
        c2 = (N * (N - 2.0)) ** ((N - 2.0) / 2.0)
        omega = 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)
        grad = omega * self.half_line(
            lambda r: c2 * (N - 2.0) ** 2 * r ** (N + 1) * (1.0 + r**2) ** (-N))
        unit_mass = omega * self.half_line(
            lambda r: c2 * r ** (N - 1) * (1.0 + r**2) ** (2.0 - N))
        level, _ = critical_grad_norm_sq(N)
        assert level == pytest.approx(grad, rel=1e-13)
        assert Bubble(N, 1.0).unit_mass == pytest.approx(unit_mass, rel=1e-13)


class TestGagliardoNirenberg:
    PAIRS = [(1, 6.0), (3, 3.0), (2, 4.5), (5, 2.5)]

    @staticmethod
    def quadrature_quotient(N, p, width):
        """Weinstein quotient of exp(-(r/width)^2 / 2) by composite 12-point
        Gauss-Legendre quadrature, 160 panels on [0, sqrt(200) width]."""
        r, w = gauss_legendre(0.0, sqrt(200.0) * width, 160)
        omega = 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)

        def integral(v):
            return omega * float(np.dot(w, v * r ** (N - 1)))

        u = np.exp(-0.5 * (r / width) ** 2)
        a = N * (p - 2.0) / 2.0
        grad2 = integral((r / width**2 * u) ** 2)
        return integral(u**p) / (grad2 ** (a / 2.0) * integral(u**2) ** ((p - a) / 2.0))

    @pytest.mark.parametrize("N, p", PAIRS)
    def test_closed_form_matches_quadrature(self, N, p):
        assert gn_check(N, p) == pytest.approx(self.quadrature_quotient(N, p, 1.0), rel=1e-14)

    @pytest.mark.parametrize("N, p", PAIRS)
    def test_quotient_does_not_depend_on_width(self, N, p):
        # the invariance under u -> u(x/s) that lets one gaussian stand for all
        assert self.quadrature_quotient(N, p, 0.25) == pytest.approx(
            self.quadrature_quotient(N, p, 4.0), rel=1e-14)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            gn_check(3, 2.0)
