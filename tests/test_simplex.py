"""One-phase simplex and hull feasibility, cross-checked against oracles.

The hull LP is checked against scipy's HiGHS and against a frozen copy of
the two-phase solver and hull formulation it replaced.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from cpt_games import simplex
from cpt_games.equilibrium import simplex_grid
from cpt_games.simplex import hull_residual, solve_standard_lp


def brute_force_pair_residual(points, target, step=1e-3):
    """Exhaustive theta grid over two points (independent oracle)."""
    best = np.inf
    for theta in np.arange(0.0, 1.0 + step / 2, step):
        mix = theta * points[0] + (1 - theta) * points[1]
        best = min(best, np.abs(mix - target).max())
    return best


# --- frozen copy of the two-phase solver and hull formulation (reference) ---

FROZEN_EPS = 1e-11


def _frozen_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _frozen_run_simplex(tableau, basis, ncols):
    for _ in range(20000):
        obj = tableau[-1, :ncols]
        eligible = np.flatnonzero(obj < -FROZEN_EPS)
        if eligible.size == 0:
            return "optimal"
        entering = int(eligible[0])
        col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        mask = col > FROZEN_EPS
        if not np.any(mask):
            return "unbounded"
        ratios = np.full(col.size, np.inf)
        ratios[mask] = rhs[mask] / col[mask]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + FROZEN_EPS)
        leaving = int(ties[np.argmin(basis[ties])])
        _frozen_pivot(tableau, basis, leaving, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def frozen_solve_equality_lp(c, A, b):
    """Two-phase simplex for min c.x s.t. A x = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    neg = T[:m, -1] < 0.0
    T[:m][neg] *= -1.0
    T[:m, n : n + m] = np.eye(m)
    basis = np.arange(n, n + m)
    T[-1, :] = -T[:m, :].sum(axis=0)
    T[-1, n : n + m] = 0.0
    status = _frozen_run_simplex(T, basis, n + m)
    if status != "optimal":
        raise RuntimeError("phase-1 simplex did not terminate at an optimum")
    if -T[-1, -1] > 1e-7:
        return "infeasible", np.zeros(n), np.inf
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(T[r, j]) > FROZEN_EPS:
                    _frozen_pivot(T, basis, r, j)
                    break
    keep_rows = [r for r in range(m) if basis[r] < n]
    T2 = np.zeros((len(keep_rows) + 1, n + 1))
    T2[:-1, :n] = T[keep_rows, :n]
    T2[:-1, -1] = T[keep_rows, -1]
    basis2 = basis[keep_rows].copy()
    T2[-1, :n] = c
    for r, bv in enumerate(basis2):
        T2[-1] -= T2[-1, bv] * T2[r]
    status = _frozen_run_simplex(T2, basis2, n)
    if status != "optimal":
        return status, np.zeros(n), -np.inf
    x = np.zeros(n)
    x[basis2] = np.maximum(T2[:-1, -1], 0.0)
    return "optimal", x, float(c @ x)


def frozen_hull_residual(points, target):
    """The equality-form hull LP solved by the two-phase simplex."""
    P = np.asarray(points, dtype=float)
    y = np.asarray(target, dtype=float)
    k, d = P.shape
    n = k + 1 + 2 * d
    A = np.zeros((1 + 2 * d, n))
    b = np.zeros(1 + 2 * d)
    c = np.zeros(n)
    c[k] = 1.0
    A[0, :k] = 1.0
    b[0] = 1.0
    for j in range(d):
        A[1 + j, :k] = P[:, j]
        A[1 + j, k] = -1.0
        A[1 + j, k + 1 + j] = 1.0
        b[1 + j] = y[j]
        A[1 + d + j, :k] = -P[:, j]
        A[1 + d + j, k] = -1.0
        A[1 + d + j, k + 1 + d + j] = 1.0
        b[1 + d + j] = -y[j]
    status, x, obj = frozen_solve_equality_lp(c, A, b)
    assert status == "optimal"
    theta = np.maximum(x[:k], 0.0)
    total = theta.sum()
    if total > 0:
        theta = theta / total
    return max(obj, 0.0), theta


def region_instances(seed, count):
    """Seeded hull LPs on lattice points of simplex grids, as regions give.

    Yields (points, target) with d from 1 to 4 and up to about 70 points,
    including duplicate points, targets on a point, targets with a tie for
    the nearest point, single points and targets off the simplex.
    """
    rng = np.random.default_rng(seed)
    for n in range(count):
        d = int(rng.integers(1, 5))
        grid = simplex_grid(d, int(rng.integers(2, 25)))
        k = int(rng.integers(1, min(64, len(grid)) + 1))
        pts = grid[rng.choice(len(grid), size=k, replace=False)]
        if n % 4 == 1:
            extra = pts[rng.integers(0, k, size=int(rng.integers(1, 7)))]
            pts = np.concatenate([pts, extra])
            pts = pts[rng.permutation(len(pts))]
        kind = n % 5
        if kind == 0:
            target = rng.dirichlet(np.ones(d))
        elif kind == 1:
            target = pts[int(rng.integers(0, len(pts)))].copy()
        elif kind == 2:
            a, b = rng.choice(len(pts), size=2, replace=len(pts) < 2)
            target = 0.5 * (pts[a] + pts[b])
        elif kind == 3:
            target = rng.normal(size=d)
        else:
            target = rng.dirichlet(np.ones(d)) * rng.uniform(0.5, 1.5)
        yield pts, target


class TestStandardLp:
    def test_simple_optimum(self):
        # min -x - y st x + 2y <= 4, 3x + y <= 6: optimum at (1.6, 1.2)
        status, x, obj = solve_standard_lp(
            np.array([-1.0, -1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0])
        )
        assert status == "optimal"
        assert obj == pytest.approx(-2.8)
        assert np.allclose(x, [1.6, 1.2])

    def test_origin_is_optimal_for_nonnegative_costs(self):
        status, x, obj = solve_standard_lp(
            np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
        )
        assert status == "optimal"
        assert obj == 0.0
        assert np.array_equal(x, [0.0, 0.0])

    def test_unbounded(self):
        # min -x st x - y <= 0
        status, _, _ = solve_standard_lp(
            np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0])
        )
        assert status == "unbounded"

    def test_negative_rhs_raises(self):
        # x <= -1 has no feasible start at x = 0
        with pytest.raises(ValueError, match="nonnegative"):
            solve_standard_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(17)
        statuses = set()
        for _ in range(80):
            m, n = rng.integers(1, 6), rng.integers(1, 8)
            A = rng.normal(size=(m, n))
            b = rng.random(m) * (rng.random(m) < 0.8)  # nonnegative, some zero
            c = rng.normal(size=n)
            status, x, obj = solve_standard_lp(c, A, b)
            ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            statuses.add(status)
            if status == "optimal":
                assert ref.status == 0
                assert obj == pytest.approx(ref.fun, abs=1e-7)
                assert np.all(x >= 0.0)
                assert (A @ x - b).max() < 1e-8
            else:
                assert status == "unbounded"
                assert ref.status == 3
        assert statuses == {"optimal", "unbounded"}

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        A = rng.random(size=(3, 6)) + 0.1  # positive rows bound every x
        b = rng.random(3)
        c = rng.normal(size=6)
        first = solve_standard_lp(c, A, b)
        second = solve_standard_lp(c, A, b)
        assert first[0] == second[0] == "optimal"
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2]

    def test_iteration_limit_raises(self, monkeypatch):
        # min -x st x <= 1 needs one pivot
        monkeypatch.setattr(simplex, "MAX_ITER", 0)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_standard_lp(np.array([-1.0]), np.array([[1.0]]), np.array([1.0]))


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

    def test_empty_points_raise(self):
        with pytest.raises(ValueError, match="need at least one point"):
            hull_residual(np.zeros((0, 3)), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="need at least one point"):
            hull_residual(np.array([]), np.full(3, 1 / 3))


class TestFrozenTwoPhaseReference:
    """The one-phase hull LP against the two-phase solver it replaced."""

    def test_residuals_and_verdicts_agree(self):
        checked = 0
        for pts, target in region_instances(seed=5, count=400):
            res, theta = hull_residual(pts, target)
            ref, _ = frozen_hull_residual(pts, target)
            assert abs(res - ref) <= 1e-12
            assert (res <= 1e-6) == (ref <= 1e-6)
            assert np.all(theta >= 0.0)
            assert theta.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(pts.T @ theta - target).max() <= res + 1e-12
            checked += 1
        assert checked == 400

    def test_repeat_calls_are_identical(self):
        for pts, target in region_instances(seed=6, count=60):
            res, theta = hull_residual(pts, target)
            again, theta_again = hull_residual(pts.copy(), target.copy())
            assert res == again
            assert np.array_equal(theta, theta_again)

    def test_target_on_a_point_is_exact(self):
        for pts, _ in region_instances(seed=7, count=60):
            for i in {0, len(pts) - 1}:
                res, theta = hull_residual(pts, pts[i])
                first = int(np.flatnonzero((pts == pts[i]).all(axis=1))[0])
                assert res == 0.0
                assert np.array_equal(theta, np.eye(len(pts))[first])
                assert frozen_hull_residual(pts, pts[i])[0] == pytest.approx(0.0, abs=1e-12)

    def test_ties_for_the_nearest_point(self):
        # the duplicate pair and the last point are all 0.25 from the target,
        # which is the midpoint of the pair and the last point
        pts = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        target = np.array([0.25, 0.75, 0.0])
        res, theta = hull_residual(pts, target)
        assert res == pytest.approx(frozen_hull_residual(pts, target)[0], abs=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)
        assert np.abs(pts.T @ theta - target).max() <= 1e-12
        off = np.array([0.5, 0.5, 0.5])  # off the simplex, 0.5 from every point
        res, theta = hull_residual(pts, off)
        assert res == pytest.approx(frozen_hull_residual(pts, off)[0], abs=1e-12)
        assert res == pytest.approx(0.5, abs=1e-12)
