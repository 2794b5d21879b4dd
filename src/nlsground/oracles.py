"""Closed-form reference solutions.

Every reference value here is a product of powers and Beta functions,
evaluated through math.lgamma and sharing nothing with the cell
quadrature of the grid module, so that agreement between solver output
and oracle is evidence rather than tautology.  Nothing in this module
imports the functional or optimizer modules.

Two families are covered: the 1D sech soliton of the pure power
f(t) = |t|^{p-2} t (Soliton1D), with the maps mu <-> mass and the
ground-state energy curve they induce, and the critical Aubin-Talenti
bubble (Bubble), whose gradient norm is S^{N/2} for the best Sobolev
constant S (critical_grad_norm_sq).

Each value is exp(l_1 + ... + l_n) for the logs l_i of its factors, so
it stays finite where a factor alone would overflow.  Its error bound is
the rounding budget of that evaluation: the value times _ROUNDING
(1 + |l_i|) summed over the logs, since each log is rounded to a few
ulps of its size (lgamma and a log near 0 to a few eps) and exp turns
the sum's absolute error into a relative one.  A difference of such
values (action, Pohozaev) is bounded by the sum of its terms' bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .grid import sphere_area

# the rounding budget per log and unit of its size, see the module docstring
_ROUNDING = 8.0 * float(np.finfo(float).eps)


@dataclass
class OracleTable:
    """Reference scalars for one closed-form case."""

    case: str
    params: dict
    values: dict
    error_bounds: dict

    def as_dict(self) -> dict:
        return asdict(self)


def _log_beta(a: float, b: float) -> tuple:
    """The logs whose sum is log B(a, b) = log Gamma(a) Gamma(b) / Gamma(a+b)."""
    return math.lgamma(a), math.lgamma(b), -math.lgamma(a + b)


def _exp_sum(*logs: float) -> tuple[float, float]:
    """exp(sum of logs), +inf where it overflows, and its rounding bound."""
    try:
        value = math.exp(math.fsum(logs))
    except OverflowError:
        value = math.inf
    return value, value * _ROUNDING * sum(1.0 + abs(v) for v in logs)


class Soliton1D:
    """Exact sech-profile solution of -w'' + mu w = |w|^{p-2} w on the line.

        w(x) = A sech^k(B x),  k = 2/(p-2),  A = (p mu / 2)^{k/2},
        B = sqrt(mu) / k.

    With M(a) = int_R sech^a = B(a/2, 1/2) and M(2k+2) = M(2k) 2k/(2k+1):

        mass        = A^2 M(2k) / B,
        ||w'||^2    = A^2 B k^2 M(2k) / (2k+1),
        int |w|^p/p = A^p M(2k+2) / (p B),   since p k = 2k+2.

    The last is evaluated on its own, not from the first two, so the
    Pohozaev value P = ||w'||^2 - (p-2)/2 int |w|^p/p checks the algebra
    of A, B and k instead of vanishing by construction.

    Mass supercritical for p > 6, so the mass is strictly decreasing in mu
    and the inverse map mu(m) is well defined.
    """

    def __init__(self, p: float, mu: float):
        if not 6.0 < p < math.inf:
            raise ValueError(f"1D mass-supercritical window requires finite p > 6, got {p}")
        if not 0 < mu < math.inf:
            raise ValueError(f"need finite mu > 0, got {mu}")
        self.p = float(p)
        self.mu = float(mu)
        self.amplitude = (p * mu / 2.0) ** (1.0 / (p - 2.0))
        self.rate = (p - 2.0) * math.sqrt(mu) / 2.0
        k = 2.0 / (p - 2.0)
        # the logs of A^2 = (p mu / 2)^k and A^p = A^2 (p mu / 2) term by
        # term, and B = sqrt(mu) / k
        log_pmu2 = (math.log(p), math.log(mu), -math.log(2.0))
        log_a2 = tuple(k * v for v in log_pmu2)
        log_ap = tuple((k + 1.0) * v for v in log_pmu2)
        log_k, log_root_mu = math.log(2.0) - math.log(p - 2.0), 0.5 * math.log(mu)
        self.mass, e_m = _exp_sum(*log_a2, *_log_beta(k, 0.5), log_k, -log_root_mu)
        T, e_t = _exp_sum(*log_a2, *_log_beta(k, 0.5), log_root_mu, log_k,
                          -math.log(2.0 * k + 1.0))
        V, e_v = _exp_sum(*log_ap, *_log_beta(k + 1.0, 0.5), -math.log(p), log_k,
                          -log_root_mu)
        self.grad_norm_sq = T
        self.action = 0.5 * T - V
        # P(w) = ||w'||^2 - (1/2) int (f(w) w - 2 F(w)) = T - (p-2) V / 2
        self.pohozaev = T - 0.5 * (p - 2.0) * V
        self.error_bounds = {
            "mass": e_m,
            "grad_norm_sq": e_t,
            "action": 0.5 * e_t + e_v,
            "pohozaev": e_t + 0.5 * (p - 2.0) * e_v,
        }

    def profile(self, x):
        z = self.rate * np.abs(np.asarray(x, dtype=float))
        k = 2.0 / (self.p - 2.0)
        # sech^k via exp to avoid overflow of cosh at large argument
        return self.amplitude * (2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))) ** k

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
    """Gradient norm of the standard bubble, i.e. S^{N/2}, with error bound:

        S^{N/2} = omega_{N-1} c2 B((N+2)/2, (N-2)/2) / 2,
        c2 = [N(N-2)]^{(N-2)/2} (N-2)^2,

    from |U'(r)|^2 r^{N-1} = c2 r^{N+1} (1+r^2)^{-N}.  Finite for every
    N >= 3 (the bubble's mass is finite only for N >= 5, see Bubble).
    """
    if N < 3:
        raise ValueError("critical bubble requires N >= 3")
    return _exp_sum(math.log(0.5 * sphere_area(N)), 0.5 * (N - 2.0) * math.log(N * (N - 2.0)),
                    2.0 * math.log(N - 2.0), *_log_beta(0.5 * (N + 2.0), 0.5 * (N - 2.0)))


class Bubble:
    """Aubin-Talenti profile U_eps(x) = eps^{(2-N)/4} U(x/sqrt(eps)).

    Solves -Delta U_eps = U_eps^{(N+2)/(N-2)} with multiplier zero; its
    squared L^2 norm is eps ||U||^2 (finite only when N >= 5), with

        ||U||^2 = omega_{N-1} [N(N-2)]^{(N-2)/2} B(N/2, (N-4)/2) / 2,

    its gradient norm is S^{N/2} independently of eps, and its action is
    S^{N/2}/N.
    """

    def __init__(self, N: int, eps: float):
        if N < 5:
            raise ValueError("the bubble is in L^2(R^N) only when N >= 5")
        if not 0 < eps < math.inf:
            raise ValueError(f"need finite eps > 0, got {eps}")
        self.N = int(N)
        self.eps = float(eps)
        logs = (math.log(0.5 * sphere_area(N)), 0.5 * (N - 2.0) * math.log(N * (N - 2.0)),
                *_log_beta(0.5 * N, 0.5 * (N - 4.0)))
        self.unit_mass, _ = _exp_sum(*logs)
        self.mass, e_m = _exp_sum(*logs, math.log(eps))
        g, ge = critical_grad_norm_sq(N)
        self.grad_norm_sq = g
        self.action = g / N
        self.error_bounds = {
            "mass": e_m,
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
