"""Radial discretization of R^N.

Radial profiles u(r) live on a truncated domain [0, R] with nodes
r_0 = 0 < r_1 < ... < r_{K-1} = R.  Integrals carry the surface measure
of the unit sphere, so for a radial function

    int_{R^N} g(|x|) dx  ~  sum_i w_i g(r_i),
    omega_{N-1} = 2 pi^{N/2} / Gamma(N/2).

Weights are the exact measure of the dual cells [r_{i-1/2}, r_{i+1/2}]
(with r_{-1/2} = 0 and r_{K-1/2} = R), so sum(w) equals the volume of the
ball of radius R to machine precision on every grid.  The discrete
gradient energy is a conservative flux form over the same cells, and the
radial Laplacian is its flux-difference operator.  This pairing makes

    grad_norm_sq(u) == <neg_laplacian(u), u>_w

exact for profiles vanishing at r = R (summation by parts), and the
operator exactly self-adjoint in the weighted inner product.  The origin
row reduces algebraically to the regularity stencil -2N(u_1 - u_0)/h^2,
i.e. the L'Hopital value -N u''(0) under u'(0) = 0.

Homogeneous Dirichlet is imposed at r = R: the energy form and the
operator treat the last nodal value as zero.  Solutions with mu > 0 decay
exponentially so the truncation error is controllable; the mu = 0
critical bubble decays only polynomially and needs a stretched grid with
large R (see make_grid's stretch parameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray


class ConfigurationError(ValueError):
    """Invalid grid or run configuration."""


def sphere_area(dimension: int) -> float:
    """Surface measure of the unit sphere S^{N-1}: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Immutable radial grid with cell-exact quadrature weights.

    Attributes:
        dimension: spatial dimension N >= 1.
        radius: truncation radius R.
        nodes: strictly increasing radii, nodes[0] = 0, nodes[-1] = R.
        weights: quadrature weights against omega_{N-1} r^{N-1} dr.
    """

    dimension: int
    radius: float
    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    # flux coefficients omega * r_{i+1/2}^{N-1} / h_i for the K-1 cells
    _flux_coef: NDArray[np.float64] = field(repr=False, default=None)

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ConfigurationError("grid needs at least two nodes")
        if not np.all(np.diff(r) > 0):
            raise ConfigurationError("grid nodes must be strictly increasing")
        w = np.asarray(self.weights, dtype=float)
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise ConfigurationError("quadrature weights must be finite and positive")
        h = np.diff(r)
        mid = 0.5 * (r[:-1] + r[1:])
        omega = sphere_area(self.dimension)
        object.__setattr__(self, "_flux_coef", omega * mid ** (self.dimension - 1) / h)
        r.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", r)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.nodes.size

    def inner(self, a, b) -> float:
        """Weighted L^2 inner product of two sample arrays."""
        return float(np.dot(self.weights, np.asarray(a) * np.asarray(b)))

    def norm(self, a) -> float:
        return math.sqrt(max(self.inner(a, a), 0.0))

    def integrate(self, a) -> float:
        """Integral of a sampled radial function against omega r^{N-1} dr."""
        return float(np.dot(self.weights, np.asarray(a)))


@dataclass
class GridFunction:
    """A radial profile sampled on a RadialGrid."""

    grid: RadialGrid
    values: NDArray[np.float64]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.nodes.shape:
            raise ConfigurationError("values length must equal node count")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("profile values must be finite")
        self.values = v

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def to_csv(self, path) -> None:
        """Write the profile as CSV with header "r,u", 17 significant digits."""
        with open(path, "w") as fh:
            fh.write("r,u\n")
            for r, u in zip(self.grid.nodes, self.values):
                fh.write(f"{r:.17g},{u:.17g}\n")

    @staticmethod
    def from_csv(path, grid: RadialGrid) -> "GridFunction":
        """Load a profile saved by to_csv onto the matching grid."""
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if rows.size == 0:
            raise ConfigurationError(f"empty profile file: {path}")
        r, u = rows[:, 0], rows[:, 1]
        if r.size != grid.size or not np.allclose(r, grid.nodes, rtol=1e-12, atol=1e-12):
            raise ConfigurationError("profile file does not match the grid nodes")
        return GridFunction(grid, u)


def make_grid(N: int, R: float, K: int, stretch: float | None = None) -> RadialGrid:
    """Build a radial grid with K nodes on [0, R] in dimension N.

    Without stretch the nodes are uniform.  With stretch = L > 0 the nodes
    are images of a uniform parameter grid under the monotone rational map

        xi -> R xi / (1 + L (1 - xi)),

    which clusters nodes near the origin (spacing ~ R/(1+L)/K there and
    ~ R(1+L)/K near R).
    """
    if N < 1 or int(N) != N:
        raise ConfigurationError(f"dimension must be a positive integer, got {N}")
    if not (R > 0 and math.isfinite(R)):
        raise ConfigurationError(f"radius must be positive, got {R}")
    if K < 16:
        raise ConfigurationError(f"need at least 16 nodes, got {K}")
    xi = np.linspace(0.0, 1.0, K)
    if stretch is None:
        nodes = R * xi
    else:
        L = float(stretch)
        if not (L > 0 and math.isfinite(L)):
            raise ConfigurationError(f"stretch must be positive and finite, got {stretch}")
        nodes = R * xi / (1.0 + L * (1.0 - xi))
    nodes[0], nodes[-1] = 0.0, R

    # Exact measure of the dual cells: w_i = (omega/N) (r_{i+1/2}^N - r_{i-1/2}^N).
    omega = sphere_area(N)
    edges = np.empty(K + 1)
    edges[0], edges[-1] = 0.0, R
    edges[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    weights = (omega / N) * np.diff(edges**N)
    return RadialGrid(dimension=int(N), radius=float(R), nodes=nodes, weights=weights)


def mass(u: GridFunction) -> float:
    """Squared L^2 norm: sum_i w_i u_i^2."""
    return u.grid.inner(u.values, u.values)


def grad_norm_sq(u: GridFunction) -> float:
    """Discrete Dirichlet energy int |grad u|^2.

    Conservative flux form over the grid cells with the Dirichlet end
    forced to zero; pairs exactly with neg_laplacian for profiles
    vanishing at r = R.
    """
    v = u.values.copy()
    v[-1] = 0.0
    d = np.diff(v)
    return float(np.dot(u.grid._flux_coef, d * d))


def neg_laplacian(u: GridFunction) -> GridFunction:
    """Apply -(1/r^{N-1}) (r^{N-1} u')' with u'(0) = 0 and u(R) = 0.

    Self-adjoint with respect to the quadrature weights by construction;
    the last row (Dirichlet node) is zero.
    """
    g = u.grid
    v = u.values.copy()
    v[-1] = 0.0
    flux = g._flux_coef * np.diff(v)
    out = np.zeros_like(v)
    out[0] = -flux[0] / g.weights[0]
    out[1:-1] = (flux[:-1] - flux[1:]) / g.weights[1:-1]
    return GridFunction(g, out)


def solve_shifted(grid: RadialGrid, c: float, beta: float, rhs) -> NDArray[np.float64]:
    """Solve (c I + beta (-Delta)) x = rhs with x(R) = 0.

    The operator is the weighted-symmetric Laplacian of neg_laplacian, so
    the system in flux form, (c D + beta S) x = D rhs with D = diag(w) and
    S the symmetric stiffness matrix, is SPD tridiagonal and solved in
    O(K).  The inverse is the Sobolev-gradient preconditioner used by the
    optimizer.
    """
    from scipy.linalg import solveh_banded

    if not (c > 0 and beta >= 0):
        raise ConfigurationError("shifted solve needs c > 0, beta >= 0")
    w = grid.weights[:-1]
    fc = grid._flux_coef  # omega rho_{i+1/2} / h_i, one per cell
    n = grid.size - 1  # Dirichlet eliminates the last node
    diag = c * w.copy()
    diag += beta * fc[:n]
    diag[1:] += beta * fc[: n - 1]
    upper = np.zeros(n)
    upper[1:] = -beta * fc[: n - 1]
    ab = np.vstack([upper, diag])
    b = w * np.asarray(rhs, dtype=float)[:-1]
    x = solveh_banded(ab, b, lower=False)
    return np.concatenate([x, [0.0]])
