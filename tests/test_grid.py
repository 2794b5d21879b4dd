import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (
    ConfigurationError,
    GridFunction,
    grad_norm_sq,
    make_grid,
    mass,
    neg_laplacian,
)
from nlsground import grid as grid_module
from nlsground.grid import (
    _CSV_CHUNK,
    _max_radius,
    solve_shifted,
    spd_tridiagonal_solve,
    sphere_area,
    symmetric_tridiagonal_solve,
)

from conftest import random_profiles


def ball_volume(N, R):
    return sphere_area(N) / N * R**N


class TestMakeGrid:
    def test_weights_sum_to_ball_volume(self):
        for N in (1, 2, 3, 5):
            g = make_grid(N, 7.5, 301)
            assert abs(g.weights.sum() / ball_volume(N, 7.5) - 1) < 1e-10

    def test_three_dim_ball(self):
        g = make_grid(3, 10.0, 4001)
        assert abs(g.weights.sum() / (4.0 / 3.0 * math.pi * 1000.0) - 1) < 1e-6

    def test_one_dim_measure_is_two(self):
        g = make_grid(1, 5.0, 1001)
        assert abs(g.weights.sum() - 10.0) < 1e-10

    def test_weights_positive_nodes_increasing(self):
        for stretch in (None, 3.0, 40.0):
            g = make_grid(4, 12.0, 257, stretch=stretch)
            assert np.all(g.weights > 0)
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[0] == 0.0 and g.nodes[-1] == 12.0

    def test_stretch_clusters_near_origin(self):
        uniform = make_grid(2, 10.0, 101)
        stretched = make_grid(2, 10.0, 101, stretch=9.0)
        assert stretched.nodes[1] < uniform.nodes[1] / 5.0
        assert (stretched.nodes[-1] - stretched.nodes[-2]) > (
            uniform.nodes[-1] - uniform.nodes[-2]
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            make_grid(3, -1.0, 100)
        with pytest.raises(ConfigurationError):
            make_grid(3, 1.0, 15)
        with pytest.raises(ConfigurationError):
            make_grid(0, 1.0, 100)
        with pytest.raises(ConfigurationError):
            make_grid(3, 1.0, 100, stretch=-2.0)

    def test_largest_radius(self):
        # the largest radius whose R^max(N, 2) is finite: one ulp more
        # overflows and is refused
        for N in (1, 2, 3, 5):
            R = _max_radius(N)
            assert math.isfinite(R ** max(N, 2))
            with pytest.raises(OverflowError):
                math.nextafter(R, math.inf) ** max(N, 2)
            with pytest.raises(ConfigurationError, match=re.escape(f"at most {R!r} in dimension {N},")):
                make_grid(N, math.nextafter(R, math.inf), 100)

    def test_grid_immutable(self):
        g = make_grid(2, 1.0, 64)
        with pytest.raises(ValueError):
            g.nodes[3] = 17.0


class TestMass:
    def test_zero_profile(self):
        g = make_grid(3, 4.0, 128)
        assert mass(GridFunction(g, np.zeros(128))) == 0.0

    def test_gaussian_closed_form(self):
        # int exp(-2 r^2) over R^3 = (pi/2)^{3/2}
        g = make_grid(3, 9.0, 4001)
        u = GridFunction(g, np.exp(-g.nodes**2))
        assert abs(mass(u) / (math.pi / 2.0) ** 1.5 - 1) < 1e-5
        assert abs(mass(u) - 1.9687) < 2e-4

    @given(c=st.floats(-8.0, 8.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_scaling_homogeneity(self, c):
        g = make_grid(2, 5.0, 200)
        vals = np.exp(-g.nodes)
        base = mass(GridFunction(g, vals))
        scaled = mass(GridFunction(g, c * vals))
        assert scaled == pytest.approx(c * c * base, rel=1e-12, abs=1e-12)


class TestGradNormSq:
    def test_zero_profile(self):
        g = make_grid(2, 3.0, 90)
        assert grad_norm_sq(GridFunction(g, np.zeros(90))) == 0.0

    def test_constant_has_boundary_layer_only(self):
        g = make_grid(1, 10.0, 1001)
        u = GridFunction(g, np.ones(1001))
        h = g.nodes[-1] - g.nodes[-2]
        # Dirichlet end forced to zero: single-cell energy 2 * (1/h)
        assert grad_norm_sq(u) == pytest.approx(2.0 / h, rel=1e-12)

    def test_gaussian_closed_form_1d(self):
        # int |d/dr exp(-r^2)|^2 * 2 dr over [0, inf) = sqrt(pi/2)
        g = make_grid(1, 9.0, 4001)
        u = GridFunction(g, np.exp(-g.nodes**2))
        assert abs(grad_norm_sq(u) / math.sqrt(math.pi / 2.0) - 1) < 1e-5

    def test_summation_by_parts_exact(self):
        gen = np.random.default_rng(3)
        for N in (1, 2, 3, 5):
            g = make_grid(N, 4.0, 96)
            v = gen.standard_normal(96)
            v[-1] = 0.0
            u = GridFunction(g, v)
            lhs = grad_norm_sq(u)
            rhs = g.inner(neg_laplacian(u).values, v)
            assert abs(lhs - rhs) <= 1e-13 * max(lhs, 1.0)


class TestNegLaplacian:
    def test_zero_profile(self):
        g = make_grid(5, 2.0, 64)
        out = neg_laplacian(GridFunction(g, np.zeros(64)))
        assert np.all(out.values == 0.0)

    def test_linearity(self):
        g = make_grid(3, 5.0, 200)
        gen = np.random.default_rng(11)
        a, b = gen.standard_normal(200), gen.standard_normal(200)
        x, y = 1.7, -0.3
        left = neg_laplacian(GridFunction(g, x * a + y * b)).values
        right = x * neg_laplacian(GridFunction(g, a)).values \
            + y * neg_laplacian(GridFunction(g, b)).values
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_adjointness(self):
        gen = np.random.default_rng(7)
        for N in (1, 2, 3):
            g = make_grid(N, 4.0, 80)
            a = gen.standard_normal(80)
            b = gen.standard_normal(80)
            a[-1] = b[-1] = 0.0
            x = g.inner(neg_laplacian(GridFunction(g, a)).values, b)
            y = g.inner(a, neg_laplacian(GridFunction(g, b)).values)
            assert abs(x - y) <= 1e-12 * max(abs(x), 1.0)

    def test_radial_eigenfunction(self):
        # u = sin(pi r / R)/r solves -Delta u = (pi/R)^2 u in R^3
        residuals = []
        for K in (501, 1001, 2001):
            g = make_grid(3, 1.0, K)
            r = g.nodes.copy()
            r[0] = 1.0
            vals = np.sin(math.pi * g.nodes) / r
            vals[0] = math.pi
            u = GridFunction(g, vals)
            res = neg_laplacian(u).values - math.pi**2 * vals
            residuals.append(g.norm(res) / g.norm(vals))
        assert residuals[0] < 1e-4
        # second-order convergence: each doubling gains at least 3x
        assert residuals[0] / residuals[1] > 3.0
        assert residuals[1] / residuals[2] > 3.0

    def test_refinement_invariance_of_functionals(self):
        vals = []
        for K in (501, 1001, 2001):
            g = make_grid(3, 12.0, K)
            u = GridFunction(g, np.exp(-g.nodes**2) * (1 + g.nodes))
            vals.append((mass(u), grad_norm_sq(u)))
        m_err = [abs(v[0] - vals[-1][0]) for v in vals[:-1]]
        t_err = [abs(v[1] - vals[-1][1]) for v in vals[:-1]]
        assert m_err[0] / max(m_err[1], 1e-15) > 3.0
        assert t_err[0] / max(t_err[1], 1e-15) > 3.0


class TestShiftedSolve:
    def test_inverse_of_shifted_operator(self):
        gen = np.random.default_rng(5)
        for N in (1, 3):
            g = make_grid(N, 6.0, 150)
            rhs = gen.standard_normal(150)
            rhs[-1] = 0.0
            x = solve_shifted(g, 2.5, 0.7, rhs)
            u = GridFunction(g, x)
            back = 2.5 * x + 0.7 * neg_laplacian(u).values
            assert np.allclose(back[:-1], rhs[:-1], rtol=1e-10, atol=1e-10)
            assert x[-1] == 0.0


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def _run_python(code, *path):
    src = os.path.dirname(os.path.dirname(grid_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (*path, src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestTridiagonalSolves:
    """The LAPACK wrappers give scipy.linalg's banded solvers' bits and errors."""

    @pytest.mark.parametrize("K, stretch", [(16, None), (4001, None), (24001, None),
                                            (2001, 150.0), (24001, 40.0)])
    def test_shifted_solve_is_solveh_banded(self, K, stretch):
        gen = np.random.default_rng(K)
        g = make_grid(2, 24.0, K, stretch=stretch)
        n, w, fc = K - 1, g.weights[:-1], g._flux_coef
        for c, beta in ((1.0, 0.0), (0.37, 1.0), (2.5, 0.7), (1e-6, 3.0)):
            rhs = gen.standard_normal(K)
            diag = c * w + beta * fc[:n]
            diag[1:] += beta * fc[: n - 1]
            upper = np.zeros(n)
            upper[1:] = -beta * fc[: n - 1]
            ref = scipy.linalg.solveh_banded(np.vstack([upper, diag]), w * rhs[:-1],
                                             lower=False)
            x = solve_shifted(g, c, beta, rhs)
            assert np.array_equal(_bits(x[:-1]), _bits(ref)) and x[-1] == 0.0

    def test_symmetric_solve_is_solve_banded(self):
        gen = np.random.default_rng(3)
        for n in (16, 257, 4000, 24000):
            # tridiag(-1, 2, -1) has its spectrum in (0, 4); shifted by -1
            # and perturbed by at most 0.1 it has eigenvalues of both signs
            e = -1.0 + gen.uniform(-0.05, 0.05, n - 1)
            d = 1.0 + gen.uniform(-0.05, 0.05, n)
            b = gen.standard_normal((n, 2))
            off = np.concatenate([[0.0], e])
            ab = np.vstack([off, d, np.concatenate([e, [0.0]])])
            ref = scipy.linalg.solve_banded((1, 1), ab, b)
            x = symmetric_tridiagonal_solve(d, e, b)
            assert x.shape == (n, 2)
            assert np.array_equal(_bits(x), _bits(ref))

    def test_nonfinite_input_raises_value_error(self):
        d, e, b = np.full(16, 4.0), np.ones(15), np.ones(16)
        for solve in (spd_tridiagonal_solve, symmetric_tridiagonal_solve):
            for bad in (np.nan, np.inf):
                b_bad = b.copy()
                b_bad[5] = bad
                with pytest.raises(ValueError, match="infs or NaNs"):
                    solve(d, e, b_bad)
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(np.where(np.arange(16) == 3, np.nan, d), e, b)
        g = make_grid(1, 5.0, 32)
        rhs = np.ones(32)
        rhs[0] = np.nan
        with pytest.raises(ValueError):
            solve_shifted(g, 1.0, 1.0, rhs)

    def test_indefinite_system_raises_linalg_error(self):
        d, e = np.full(16, 1.0), np.full(15, -2.0)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            spd_tridiagonal_solve(d, e, np.ones(16))
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solveh_banded(np.vstack([np.concatenate([[0.0], e]), d]),
                                       np.ones(16))

    def test_singular_system_raises_linalg_error(self):
        # zero diagonal, odd order: singular, and partial pivoting meets an
        # exact zero pivot
        d, e = np.zeros(17), np.ones(16)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            symmetric_tridiagonal_solve(d, e, np.ones((17, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_banded((1, 1), np.vstack([np.concatenate([[0.0], e]), d,
                                                         np.concatenate([e, [0.0]])]),
                                      np.ones((17, 2)))

    def test_scipy_linalg_shares_the_loaded_lapack(self):
        # nlsground registers the module it loads; scipy.linalg imported
        # afterwards works and uses it, and nlsground reuses scipy.linalg's
        # when that came first
        for first in ("nlsground.grid", "scipy.linalg"):
            code = (f"import {first}, nlsground.grid as g, scipy.linalg, scipy.linalg.lapack as l; "
                    "scipy.linalg.solveh_banded([[0.0, 1.0], [4.0, 4.0]], [1.0, 2.0]); "
                    "print(l.dptsv is g._FLAPACK.dptsv, l.dgtsv is g._FLAPACK.dgtsv)")
            out = _run_python(code)
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == ["True", "True"]

    def test_missing_flapack_names_the_searched_folder(self, tmp_path):
        # a scipy package without its linalg extension shadows the real one
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        out = _run_python("import nlsground.grid", str(tmp_path))
        assert out.returncode != 0
        assert "ImportError" in out.stderr
        assert str(tmp_path / "scipy" / "linalg") in out.stderr


class TestProfileIO:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        g = make_grid(2, 5.0, 64, stretch=2.0)
        gen = np.random.default_rng(13)
        u = GridFunction(g, gen.standard_normal(64))
        path = tmp_path / "profile.csv"
        u.to_csv(path)
        assert path.read_text().splitlines()[0] == "r,u"
        v = GridFunction.from_csv(path, g)
        assert np.array_equal(u.values, v.values)

    @pytest.mark.parametrize("K", [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 24001])
    def test_chunked_writer_matches_row_writer(self, tmp_path, K):
        # the writer as it stood with one f-string per row
        def row_writer(u, path):
            with open(path, "w") as fh:
                fh.write("r,u\n")
                for r, v in zip(u.grid.nodes, u.values):
                    fh.write(f"{r:.17g},{v:.17g}\n")

        g = make_grid(3, 7.0, K, stretch=3.0)
        values = np.random.default_rng(K).standard_normal(K) * np.geomspace(1e-3, 1e3, K)
        values[: 7] = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e300, -2.5]
        values[K // 2] = 2.2250738585072014e-308
        values[-1] = -0.0
        u = GridFunction(g, values)
        u.to_csv(tmp_path / "chunked.csv")
        row_writer(u, tmp_path / "rows.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_rewrite_makes_a_fresh_file(self, tmp_path):
        g = make_grid(2, 5.0, 64)
        u = GridFunction(g, np.linspace(1.0, 0.0, 64))
        u.to_csv(tmp_path / "fresh.csv")
        path = tmp_path / "profile.csv"
        GridFunction(make_grid(2, 5.0, 640), np.ones(640)).to_csv(path)
        kept = tmp_path / "kept.csv"
        os.link(path, kept)  # holds the old inode, so its number cannot be reused
        old = kept.read_bytes()
        assert len(old) > len((tmp_path / "fresh.csv").read_bytes())
        u.to_csv(path)
        # exactly a fresh write's bytes, on a new inode; the old file is untouched
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert path.stat().st_ino != kept.stat().st_ino
        assert kept.read_bytes() == old

    def test_link_at_path_is_replaced(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"keep me\n")
        path = tmp_path / "profile.csv"
        path.symlink_to(target)
        u = GridFunction(make_grid(1, 1.0, 32), np.ones(32))
        u.to_csv(path)
        assert not path.is_symlink()
        assert np.array_equal(GridFunction.from_csv(path, u.grid).values, u.values)
        assert target.read_bytes() == b"keep me\n"

    def test_directory_at_path_raises(self, tmp_path):
        (tmp_path / "profile.csv").mkdir()
        u = GridFunction(make_grid(1, 1.0, 32), np.ones(32))
        with pytest.raises(IsADirectoryError):
            u.to_csv(tmp_path / "profile.csv")
        assert (tmp_path / "profile.csv").is_dir()

    def test_rejects_mismatched_grid(self, tmp_path):
        g = make_grid(2, 5.0, 64)
        other = make_grid(2, 5.0, 65)
        u = GridFunction(g, np.ones(64))
        path = tmp_path / "profile.csv"
        u.to_csv(path)
        with pytest.raises(ConfigurationError):
            GridFunction.from_csv(path, other)

    def test_rejects_nonfinite_values(self):
        g = make_grid(1, 1.0, 32)
        bad = np.ones(32)
        bad[5] = math.inf
        with pytest.raises(ConfigurationError):
            GridFunction(g, bad)
