"""Dense one-phase simplex for small linear programs.

Solves  min c.x  s.t.  A x <= b, x >= 0  with b >= 0, so the slack basis
(x = 0) is feasible and no phase 1 is needed.  Bland's anti-cycling rule
makes every solve deterministic, so certificates are reproducible across
runs.  The hull LP is stated this way from a feasible point, the region
point nearest the target (see ``hull_residual``); no sparsity, no presolve.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-11
MAX_ITER = 20000  # pivots before a solve gives up

__all__ = ["solve_standard_lp", "hull_residual"]


def solve_standard_lp(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray, float]:
    """One-phase simplex for min c.x s.t. A x <= b, x >= 0, with b >= 0.

    Starts from the slack basis and pivots by Bland's rule.  Returns
    (status, x, objective) with status in {"optimal", "unbounded"}; raises
    ``ValueError`` when b has a negative entry.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not np.all(b >= 0.0):
        raise ValueError("b must be nonnegative, so that x = 0 is feasible")
    m, n = A.shape

    # rows: A | I | b, then the reduced costs, which are c at the slack basis
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = c
    basis = np.arange(n, n + m)
    for _ in range(MAX_ITER):
        eligible = np.flatnonzero(T[-1, :-1] < -EPS)
        if eligible.size == 0:
            x = np.zeros(n + m)
            x[basis] = np.maximum(T[:-1, -1], 0.0)
            return "optimal", x[:n], float(c @ x[:n])
        entering = int(eligible[0])  # Bland: lowest eligible index enters
        col = T[:-1, entering]
        mask = col > EPS
        if not np.any(mask):
            return "unbounded", np.zeros(n), -np.inf
        ratios = np.full(m, np.inf)
        ratios[mask] = T[:-1, -1][mask] / col[mask]
        ties = np.flatnonzero(ratios <= ratios.min() + EPS)
        leaving = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        T[leaving] /= T[leaving, entering]
        factors = T[:, entering].copy()
        factors[leaving] = 0.0
        T -= np.outer(factors, T[leaving])
        basis[leaving] = entering
    raise RuntimeError("simplex iteration limit exceeded")


def hull_residual(points: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest sup-norm error of a convex combination of rows reaching target.

    Minimizes s subject to |sum_k theta_k points[k] - target|_inf <= s with
    theta a probability vector.  Returns (s, theta).

    The LP starts from a feasible point: theta = e_i and s = M, where point i
    is the one nearest the target in sup norm (lowest index on ties) and M
    its distance.  Substituting theta_i = 1 - sum of the other weights and
    s = M - t puts that point at the origin, with every right-hand side
    M -+ (points[i] - target)_j and 1 nonnegative, so ``solve_standard_lp``
    needs no phase 1; it maximizes t over the other weights.
    """
    P = np.asarray(points, dtype=float)
    y = np.asarray(target, dtype=float)
    if len(P) == 0:
        raise ValueError("need at least one point")
    k, d = P.shape
    if y.shape != (d,):
        raise ValueError("target dimension does not match the points")

    gap = P - y
    dist = np.abs(gap).max(axis=1)
    i = int(np.argmin(dist))
    others = np.arange(k) != i
    # variables: the other weights (k - 1), then t; rows: the d upper and
    # d lower error bounds, then theta_i >= 0
    D = (P[others] - P[i]).T
    A = np.zeros((2 * d + 1, k))
    A[:d, :-1] = D
    A[d : 2 * d, :-1] = -D
    A[: 2 * d, -1] = 1.0
    A[-1, :-1] = 1.0
    b = np.concatenate([dist[i] - gap[i], dist[i] + gap[i], [1.0]])
    c = np.zeros(k)
    c[-1] = -1.0

    status, x, obj = solve_standard_lp(c, A, b)
    if status != "optimal":
        raise RuntimeError(f"hull feasibility LP ended with status {status}")
    theta = np.empty(k)
    theta[others] = x[:-1]
    theta[i] = 1.0 - x[:-1].sum()
    theta = np.maximum(theta, 0.0)
    return max(dist[i] + obj, 0.0), theta / theta.sum()
