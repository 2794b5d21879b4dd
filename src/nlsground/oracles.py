"""Closed-form reference solutions with independent quadrature.

Reference values here are produced from analytic profiles by composite
Gauss-Legendre quadrature, deliberately distinct from the cell quadrature
of the grid module, so that agreement between solver output and oracle is
evidence rather than tautology.  Nothing in this module imports the
functional or optimizer modules.

Two families are covered:

  * the 1D sech soliton for the pure power f(t) = |t|^{p-2} t, which
    solves -w'' + mu w = |w|^{p-2} w exactly and gives closed-form maps
    mu <-> mass and the induced ground-state energy curve, and

  * the critical bubble U(x) = [N(N-2)]^{(N-2)/4} (1+|x|^2)^{-(N-2)/2},
    which solves -Delta U = U^{(N+2)/(N-2)} with zero multiplier; its
    gradient norm equals S^{N/2} for the best Sobolev constant S and its
    action equals S^{N/2}/N.

Every reported value carries an error bound estimated by comparing two
quadrature resolutions (plus analytic tail remainders for the
polynomially decaying bubble).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .grid import sphere_area

# Gauss-Legendre panels of the bubble quadratures on [0, 1] (a quarter as
# many on each geometric tail segment, see _quad_algebraic_tail), and the
# radius where the bubble's analytic tail takes over from the quadrature
_BUBBLE_PANELS = 160
_TAIL_CUTOFF = 1e6


@dataclass
class OracleTable:
    """Reference scalars for one closed-form case."""

    case: str
    params: dict
    values: dict
    error_bounds: dict

    def as_dict(self) -> dict:
        return asdict(self)


def _gauss_panels(a: float, b: float, panels: int):
    """Composite 12-point Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def _quad(fn, a: float, b: float, panels: int) -> float:
    x, w = _gauss_panels(a, b, panels)
    return float(np.dot(w, fn(x)))


def _with_bound(fn, a, b, panels):
    coarse = _quad(fn, a, b, max(panels // 2, 2))
    fine = _quad(fn, a, b, panels)
    return fine, abs(fine - coarse)


def _quad_algebraic_tail(fn, panels):
    """Integrate fn over [0, _TAIL_CUTOFF): [0,1] finely, then geometric panels."""
    total, err = _with_bound(fn, 0.0, 1.0, panels)
    lo = 1.0
    while lo < _TAIL_CUTOFF:
        hi = min(lo * 8.0, _TAIL_CUTOFF)
        v, e = _with_bound(fn, lo, hi, max(panels // 4, 4))
        total += v
        err += e
        lo = hi
    return total, err


class Soliton1D:
    """Exact sech-profile solution of -w'' + mu w = |w|^{p-2} w on the line.

        w(x) = (p mu / 2)^{1/(p-2)} sech^{2/(p-2)}( (p-2) sqrt(mu) x / 2 )

    Mass supercritical for p > 6, so the mass is strictly decreasing in mu
    and the inverse map mu(m) is well defined.
    """

    def __init__(self, p: float, mu: float, panels: int = 120):
        if not 6.0 < p < math.inf:
            raise ValueError(f"1D mass-supercritical window requires finite p > 6, got {p}")
        if not 0 < mu < math.inf:
            raise ValueError(f"need finite mu > 0, got {mu}")
        self.p = float(p)
        self.mu = float(mu)
        self.amplitude = (p * mu / 2.0) ** (1.0 / (p - 2.0))
        self.rate = (p - 2.0) * math.sqrt(mu) / 2.0
        # w^2 decays like exp(-2 sqrt(mu) x); 80/sqrt(mu) puts the tail
        # below 1e-69 relative
        self.cutoff = 80.0 / math.sqrt(mu)
        self._panels = panels
        self._compute()

    def profile(self, x):
        z = self.rate * np.abs(np.asarray(x, dtype=float))
        k = 2.0 / (self.p - 2.0)
        # sech^k via exp to avoid overflow of cosh at large argument
        return self.amplitude * (2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))) ** k

    def _dprofile(self, x):
        z = self.rate * np.asarray(x, dtype=float)
        k = 2.0 / (self.p - 2.0)
        sech_k = (2.0 * np.exp(-np.abs(z)) / (1.0 + np.exp(-2.0 * np.abs(z)))) ** k
        return -self.amplitude * k * self.rate * sech_k * np.tanh(z)

    def _compute(self):
        p, X, n = self.p, self.cutoff, self._panels
        w, dw = self.profile, self._dprofile
        # factor 2 throughout: even profiles on the half line (omega_0 = 2)
        m, e_m = _with_bound(lambda x: w(x) ** 2, 0.0, X, n)
        T, e_t = _with_bound(lambda x: dw(x) ** 2, 0.0, X, n)
        V, e_v = _with_bound(lambda x: np.abs(w(x)) ** p / p, 0.0, X, n)
        self.mass = 2.0 * m
        self.grad_norm_sq = 2.0 * T
        self.action = T - 2.0 * V
        # P(w) = ||w'||^2 - (1/2) int (f(w) w - 2 F(w)) = 2T - (p-2) V
        self.pohozaev = 2.0 * T - (p - 2.0) * V
        self.error_bounds = {
            "mass": 2.0 * e_m,
            "grad_norm_sq": 2.0 * e_t,
            "action": e_t + 2.0 * e_v,
            "pohozaev": 2.0 * e_t + (p - 2.0) * e_v,
        }

    def pde_residual(self) -> float:
        """Max residual of -w'' + mu w - |w|^{p-2} w over 1000 sampled points.

        Uses the chain-rule second derivative of the sech profile, so the
        residual probes the closed form's parameter algebra rather than
        finite-difference noise.
        """
        x = np.linspace(1e-3, 10.0 / math.sqrt(self.mu), 1000)
        k = 2.0 / (self.p - 2.0)
        z = self.rate * x
        sech = 2.0 * np.exp(-np.abs(z)) / (1.0 + np.exp(-2.0 * np.abs(z)))
        w0 = self.amplitude * sech**k
        # d^2/dx^2 [A sech^k(Bx)] = A B^2 k^2 sech^k - A B^2 k (k+1) sech^{k+2}
        second = (self.amplitude * self.rate**2 * k * k * sech**k
                  - self.amplitude * self.rate**2 * k * (k + 1.0) * sech ** (k + 2.0))
        res = -second + self.mu * w0 - np.abs(w0) ** (self.p - 2.0) * w0
        scale = max(float(np.max(np.abs(w0))) ** (self.p - 1.0), 1.0)
        return float(np.max(np.abs(res)) / scale)

    @staticmethod
    def mass_exponent(p: float) -> float:
        """mass(w_mu) = mu^gamma mass(w_1) with gamma = 2/(p-2) - 1/2 < 0."""
        return 2.0 / (p - 2.0) - 0.5

    @staticmethod
    def energy_exponent(p: float) -> float:
        """action(w_mu) = mu^theta action(w_1) with theta = 2/(p-2) + 1/2."""
        return 2.0 / (p - 2.0) + 0.5

    @staticmethod
    def mu_for_mass(p: float, m: float) -> float:
        """Invert the mass map: the mu whose soliton carries mass m."""
        m1 = Soliton1D(p, 1.0).mass
        return (m / m1) ** (1.0 / Soliton1D.mass_exponent(p))

    @staticmethod
    def energy_of_mass(p: float, m: float) -> float:
        """Ground-state energy E_m of the pure power problem on the line."""
        return Soliton1D(p, Soliton1D.mu_for_mass(p, m)).action

    @staticmethod
    def energy_mass_slope(p: float) -> float:
        """d log E_m / d log m = theta/gamma = -(p+2)/(p-6)."""
        return Soliton1D.energy_exponent(p) / Soliton1D.mass_exponent(p)

    def table(self) -> OracleTable:
        return OracleTable(
            case="soliton_1d",
            params={"p": self.p, "mu": self.mu},
            values={
                "mass": self.mass,
                "action": self.action,
                "grad_norm_sq": self.grad_norm_sq,
                "pohozaev": self.pohozaev,
            },
            error_bounds=self.error_bounds,
        )


def critical_grad_norm_sq(N: int) -> tuple[float, float]:
    """Gradient norm of the standard bubble, i.e. S^{N/2}, with error bound.

    Finite for every N >= 3 (the bubble's mass is finite only for N >= 5,
    see Bubble).
    """
    if N < 3:
        raise ValueError("critical bubble requires N >= 3")
    omega = sphere_area(N)
    c2 = (N * (N - 2.0)) ** ((N - 2.0) / 2.0) * (N - 2.0) ** 2

    def integrand(r):
        # |U'(r)|^2 r^{N-1} = c2 r^{N+1} (1+r^2)^{-N}
        return c2 * r ** (N + 1) * (1.0 + r**2) ** (-N)

    total, err = _quad_algebraic_tail(integrand, _BUBBLE_PANELS)
    # analytic tail: integrand ~ c2 r^{1-N} (1 - N r^{-2} + ...)
    tail = c2 * (_TAIL_CUTOFF ** (2.0 - N) / (N - 2.0) - _TAIL_CUTOFF ** (-float(N)))
    bound = c2 * _TAIL_CUTOFF ** (-float(N) - 2.0) * N * (N + 1) / 2.0
    return omega * (total + tail), omega * (err + bound)


class Bubble:
    """Aubin-Talenti profile U_eps(x) = eps^{(2-N)/4} U(x/sqrt(eps)).

    Solves -Delta U_eps = U_eps^{(N+2)/(N-2)} with multiplier zero; its
    squared L^2 norm is eps ||U||^2 (finite only when N >= 5), its
    gradient norm is S^{N/2} independently of eps, and its action is
    S^{N/2}/N.
    """

    def __init__(self, N: int, eps: float):
        if N < 5:
            raise ValueError("the bubble is in L^2(R^N) only when N >= 5")
        if not 0 < eps < math.inf:
            raise ValueError(f"need finite eps > 0, got {eps}")
        self.N = int(N)
        self.eps = float(eps)
        omega = sphere_area(N)
        c2 = (N * (N - 2.0)) ** ((N - 2.0) / 2.0)

        def u2_weighted(r):
            return c2 * (1.0 + r**2) ** (2.0 - N) * r ** (N - 1)

        v, e = _quad_algebraic_tail(u2_weighted, _BUBBLE_PANELS)
        # integrand ~ c2 r^{3-N} (1 - (N-2) r^{-2} + ...)
        tail = c2 * (_TAIL_CUTOFF ** (4.0 - N) / (N - 4.0) - _TAIL_CUTOFF ** (2.0 - N))
        bound = c2 * _TAIL_CUTOFF ** (-float(N)) * (N - 2.0) * (N - 1.0) / 2.0
        self.unit_mass = omega * (v + tail)
        self.mass = eps * self.unit_mass
        g, ge = critical_grad_norm_sq(N)
        self.grad_norm_sq = g
        self.action = g / N
        self.error_bounds = {
            "mass": eps * omega * (e + bound),
            "grad_norm_sq": ge,
            "action": ge / N,
        }

    def profile(self, r):
        N, eps = self.N, self.eps
        r = np.asarray(r, dtype=float)
        return (N * (N - 2.0) * eps) ** ((N - 2.0) / 4.0) * (eps + r**2) ** (-(N - 2.0) / 2.0)

    @staticmethod
    def minimal_mass(N: int) -> float:
        """m_N = N(N-2) ||U||^2, the smallest mass with U_eps <= 1."""
        return N * (N - 2.0) * Bubble(N, 1.0).unit_mass

    @staticmethod
    def eps_for_mass(N: int, m: float) -> float:
        return m / Bubble(N, 1.0).unit_mass

    def table(self) -> OracleTable:
        return OracleTable(
            case="bubble",
            params={"N": self.N, "eps": self.eps},
            values={
                "mass": self.mass,
                "grad_norm_sq": self.grad_norm_sq,
                "action": self.action,
                "sobolev_level": self.grad_norm_sq,
            },
            error_bounds=self.error_bounds,
        )


def gn_check(N: int, p: float) -> float:
    """Weinstein quotient of the gaussian u = exp(-r^2/2), a lower bound
    for the best Gagliardo-Nirenberg constant C in

        ||u||_p^p <= C ||grad u||_2^a ||u||_2^b,
        a = N(p-2)/2,  b = p - a.

    The quotient is invariant under u -> c u(x/s).  Closed forms:
    ||grad u||^2 = (N/2) ||u||^2 and int_0^inf e^{-k r^2/2} r^{N-1} dr =
    Gamma(N/2) (2/k)^{N/2} / 2.  Used only as a sanity bound in tests.
    """
    a = N * (p - 2.0) / 2.0
    b = p - a
    if not (0 < a < p):
        raise ValueError("exponent outside the Gagliardo-Nirenberg window")
    omega = sphere_area(N)

    def moment(k):
        return omega * math.gamma(N / 2.0) * (2.0 / k) ** (N / 2.0) / 2.0

    m2 = moment(2.0)
    return moment(p) / ((0.5 * N * m2) ** (a / 2.0) * m2 ** (b / 2.0))
