"""Two-phase simplex and hull feasibility, cross-checked against oracles."""

import numpy as np
import pytest
from scipy.optimize import linprog

from cpt_games import simplex
from cpt_games.simplex import hull_residual, solve_standard_lp


def brute_force_pair_residual(points, target, step=1e-3):
    """Exhaustive theta grid over two points (independent oracle)."""
    best = np.inf
    for theta in np.arange(0.0, 1.0 + step / 2, step):
        mix = theta * points[0] + (1 - theta) * points[1]
        best = min(best, np.abs(mix - target).max())
    return best


class TestStandardLp:
    def test_simple_optimum(self):
        # min x + 2y st x + y = 1
        status, x, obj = solve_standard_lp(
            np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
        )
        assert status == "optimal"
        assert obj == pytest.approx(1.0)
        assert np.allclose(x, [1.0, 0.0])

    def test_infeasible(self):
        # x = -1 with x >= 0
        status, _, _ = solve_standard_lp(
            np.array([1.0]), np.array([[1.0]]), np.array([-1.0])
        )
        assert status == "infeasible"

    def test_unbounded(self):
        # min -x st x - y = 0
        status, _, _ = solve_standard_lp(
            np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0])
        )
        assert status == "unbounded"

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            m, n = rng.integers(1, 5), rng.integers(2, 8)
            A = rng.normal(size=(m, n))
            x_feas = rng.random(n)
            b = A @ x_feas  # feasible by construction
            c = rng.normal(size=n)
            status, x, obj = solve_standard_lp(c, A, b)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if status == "optimal":
                assert ref.status == 0
                assert obj == pytest.approx(ref.fun, abs=1e-7)
                assert np.abs(A @ x - b).max() < 1e-8
            else:
                assert ref.status == 3  # unbounded

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(3, 6))
        b = A @ rng.random(6)
        c = rng.normal(size=6)
        first = solve_standard_lp(c, A, b)
        second = solve_standard_lp(c, A, b)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_iteration_limit_raises(self, monkeypatch):
        # min x + 2y st x + y = 1 needs a phase-1 pivot
        monkeypatch.setattr(simplex, "MAX_ITER", 0)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_standard_lp(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))


class TestHullResidual:
    def test_exact_midpoint(self, mu_odd, mu_even, mu_unif):
        res, theta = hull_residual(np.array([mu_odd, mu_even]), mu_unif)
        assert res == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(theta, [0.5, 0.5], atol=1e-9)

    def test_far_target_matches_grid_oracle(self, mu_odd, mu_even):
        target = np.array([1.0, 0.0, 0.0, 0.0])
        pts = np.array([mu_odd, mu_even])
        res, _ = hull_residual(pts, target)
        oracle = brute_force_pair_residual(pts, target)
        assert res == pytest.approx(oracle, abs=2e-3)
        assert res == pytest.approx(0.5, abs=1e-9)

    def test_single_point(self, mu_odd):
        res, theta = hull_residual(np.array([mu_odd]), mu_odd)
        assert res == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(theta, [1.0])

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            k, d = rng.integers(1, 7), rng.integers(2, 5)
            pts = rng.dirichlet(np.ones(d), size=k)
            target = rng.dirichlet(np.ones(d))
            res, theta = hull_residual(pts, target)
            # scipy formulation of the same LP
            n = k + 1
            c = np.zeros(n)
            c[k] = 1.0
            A_ub = np.zeros((2 * d, n))
            b_ub = np.zeros(2 * d)
            A_ub[:d, :k] = pts.T
            A_ub[:d, k] = -1.0
            b_ub[:d] = target
            A_ub[d:, :k] = -pts.T
            A_ub[d:, k] = -1.0
            b_ub[d:] = -target
            A_eq = np.zeros((1, n))
            A_eq[0, :k] = 1.0
            ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                          bounds=(0, None), method="highs")
            assert ref.status == 0
            assert res == pytest.approx(ref.fun, abs=1e-8)
            assert theta.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(theta >= 0.0)
            assert np.abs(pts.T @ theta - target).max() == pytest.approx(res, abs=1e-7)
