"""Dense two-phase simplex for small linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0  with Bland's anti-cycling rule, so
every solve is deterministic and certificates are reproducible across runs.
Intended for the small feasibility problems that arise in convex-hull
membership checks; no sparsity, no presolve.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-11
MAX_ITER = 20000  # pivots per phase before a solve gives up

__all__ = ["solve_standard_lp", "hull_residual"]


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Iterate to optimality on the reduced tableau (objective in last row)."""
    for _ in range(MAX_ITER):
        obj = tableau[-1, :ncols]
        eligible = np.flatnonzero(obj < -EPS)
        if eligible.size == 0:
            return "optimal"
        entering = int(eligible[0])  # Bland: lowest eligible index enters
        col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        mask = col > EPS
        if not np.any(mask):
            return "unbounded"
        ratios = np.full(col.size, np.inf)
        ratios[mask] = rhs[mask] / col[mask]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + EPS)
        leaving = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError("simplex iteration limit exceeded")


def solve_standard_lp(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray, float]:
    """Two-phase simplex for min c.x s.t. A x = b, x >= 0.

    Returns (status, x, objective) with status in
    {"optimal", "infeasible", "unbounded"}.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    # phase 1: artificial basis, nonnegative rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    neg = T[:m, -1] < 0.0
    T[:m][neg] *= -1.0
    T[:m, n : n + m] = np.eye(m)
    basis = np.arange(n, n + m)
    T[-1, :] = -T[:m, :].sum(axis=0)  # reduced phase-1 objective
    T[-1, n : n + m] = 0.0
    status = _run_simplex(T, basis, n + m)
    if status != "optimal":
        raise RuntimeError("phase-1 simplex did not terminate at an optimum")
    if -T[-1, -1] > 1e-7:
        return "infeasible", np.zeros(n), np.inf

    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(T[r, j]) > EPS:
                    _pivot(T, basis, r, j)
                    break

    # phase 2 on original columns only
    keep_rows = [r for r in range(m) if basis[r] < n]
    T2 = np.zeros((len(keep_rows) + 1, n + 1))
    T2[:-1, :n] = T[keep_rows, :n]
    T2[:-1, -1] = T[keep_rows, -1]
    basis2 = basis[keep_rows].copy()
    T2[-1, :n] = c
    for r, bv in enumerate(basis2):
        T2[-1] -= T2[-1, bv] * T2[r]
    status = _run_simplex(T2, basis2, n)
    if status != "optimal":
        return status, np.zeros(n), -np.inf

    x = np.zeros(n)
    x[basis2] = np.maximum(T2[:-1, -1], 0.0)
    return "optimal", x, float(c @ x)


def hull_residual(points: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest sup-norm error of a convex combination of rows reaching target.

    Minimizes s subject to |sum_k theta_k points[k] - target|_inf <= s with
    theta a probability vector.  Returns (s, theta).
    """
    P = np.asarray(points, dtype=float)
    y = np.asarray(target, dtype=float)
    k, d = P.shape
    if y.shape != (d,):
        raise ValueError("target dimension does not match the points")

    # variables: theta (k), s (1), slack pairs (2d)
    n = k + 1 + 2 * d
    A = np.zeros((1 + 2 * d, n))
    b = np.zeros(1 + 2 * d)
    c = np.zeros(n)
    c[k] = 1.0
    A[0, :k] = 1.0
    b[0] = 1.0
    for j in range(d):
        # P theta - s + u_j = y_j
        A[1 + j, :k] = P[:, j]
        A[1 + j, k] = -1.0
        A[1 + j, k + 1 + j] = 1.0
        b[1 + j] = y[j]
        # -P theta - s + v_j = -y_j
        A[1 + d + j, :k] = -P[:, j]
        A[1 + d + j, k] = -1.0
        A[1 + d + j, k + 1 + d + j] = 1.0
        b[1 + d + j] = -y[j]

    status, x, obj = solve_standard_lp(c, A, b)
    if status != "optimal":
        raise RuntimeError(f"hull feasibility LP ended with status {status}")
    theta = np.maximum(x[:k], 0.0)
    total = theta.sum()
    if total > 0:
        theta = theta / total
    return max(obj, 0.0), theta
