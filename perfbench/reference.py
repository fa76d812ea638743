"""Reference computations the benchmark checks the program against.

Nothing here calls into ``cpt_games``: preferences, games and
distributions arrive as plain parameters and arrays, and every quantity is
recomputed from the definitions in the paper.

* ``RefPrefs.values`` evaluates the rank-dependent CPT formula for a batch
  of lotteries sharing one outcome vector: equal outcomes are merged,
  gains take differences of the gain-weighted decumulative probabilities
  from the top, losses those of the loss-weighted cumulative probabilities
  from the bottom.
* ``compositions`` enumerates a simplex grid by recursion.
* ``hull_residual_highs`` solves the sup-norm convex-hull residual with
  ``scipy.optimize.linprog`` (HiGHS); scipy is imported on first use, so
  the timed phase of a run never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Opponent-space size -> default grid resolution, as documented for
# ``check_mediated_eq``: 24 up to 4 profiles, 6 up to 8, 2 above.
def default_resolution(d: int) -> int:
    if d <= 4:
        return 24
    if d <= 8:
        return 6
    return 2


@dataclass(frozen=True)
class RefWeight:
    kind: str  # "identity", "prelec" or "tabulated"
    gamma: float = 1.0
    points: tuple = ()

    def __call__(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.kind == "identity":
            return p.copy()
        if self.kind == "prelec":
            out = np.zeros_like(p)
            inner = (p > 0.0) & (p < 1.0)
            out[inner] = np.exp(-np.power(-np.log(p[inner]), self.gamma))
            out[p >= 1.0] = 1.0
            return out
        xs = np.array([x for x, _ in self.points])
        ys = np.array([y for _, y in self.points])
        seg = np.clip(np.searchsorted(xs, p, side="right") - 1, 0, xs.size - 2)
        frac = (p - xs[seg]) / (xs[seg + 1] - xs[seg])
        return ys[seg] + frac * (ys[seg + 1] - ys[seg])


@dataclass(frozen=True)
class RefPrefs:
    reference: float
    value_kind: str  # "identity" or "piecewise_power"
    alpha: float
    beta: float
    loss_aversion: float
    w_gain: RefWeight
    w_loss: RefWeight

    def v(self, z: np.ndarray) -> np.ndarray:
        d = np.asarray(z, dtype=float) - self.reference
        if self.value_kind == "identity":
            return d
        return np.where(
            d >= 0.0,
            np.power(np.abs(d), self.alpha),
            -self.loss_aversion * np.power(np.abs(d), self.beta),
        )

    def values(self, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """CPT values of the lotteries ``(probs[g], outcomes)`` for every row g."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        outcomes = np.asarray(outcomes, dtype=float)
        order = np.argsort(-outcomes, kind="stable")
        z = outcomes[order]
        starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
        grouped = np.add.reduceat(probs[:, order], starts, axis=1)
        zg = z[starts]
        ng = int(np.count_nonzero(zg >= self.reference))
        zero = np.zeros((grouped.shape[0], 1))
        # above[:, k] = mass strictly better than group k, below[:, k] = mass
        # strictly worse; a probability with nothing on the far side is
        # exactly one, since weights have unbounded slope there
        above = np.c_[zero, np.cumsum(grouped, axis=1)]
        below = np.c_[np.cumsum(grouped[:, ::-1], axis=1)[:, ::-1], zero]
        total = above[:, -1:]
        decum = np.where(below[:, 1:] == 0.0, 1.0, np.clip(above[:, 1:] / total, 0.0, 1.0))
        cum = np.where(above[:, :-1] == 0.0, 1.0, np.clip(below[:, :-1] / total, 0.0, 1.0))
        weights = np.zeros_like(grouped)
        if ng:
            wd = self.w_gain(decum[:, :ng])
            weights[:, :ng] = np.diff(np.c_[zero, wd], axis=1)
        if ng < zg.size:
            wc = self.w_loss(cum[:, ng:])
            weights[:, ng:] = wc - np.c_[wc[:, 1:], zero]
        return weights @ self.v(zg)


def ref_prefs(prefs) -> RefPrefs:
    """Parameters of a program preference bundle as a reference evaluator."""

    def weight(w) -> RefWeight:
        if w.kind == "tabulated":
            return RefWeight("tabulated", points=tuple(w.grid))
        return RefWeight(w.kind, gamma=float(w.gamma or 1.0))

    v = prefs.value
    return RefPrefs(
        reference=float(v.reference),
        value_kind=v.kind,
        alpha=float(v.alpha or 1.0),
        beta=float(v.beta or 1.0),
        loss_aversion=float(v.loss_aversion or 1.0),
        w_gain=weight(prefs.weight_gain),
        w_loss=weight(prefs.weight_loss),
    )


class RefGame:
    """Payoff tensor plus reference preferences, with per-player helpers."""

    def __init__(self, payoffs: np.ndarray, prefs: list[RefPrefs]):
        self.payoffs = np.asarray(payoffs, dtype=float)
        self.prefs = prefs
        self.n = self.payoffs.shape[0]
        self.shape = self.payoffs.shape[1:]
        self._regions: dict = {}

    def outcomes(self, i: int, a: int) -> np.ndarray:
        """Player i's payoffs for action a, flat over opponent profiles."""
        return np.take(self.payoffs[i], a, axis=i).ravel()

    def action_values(self, i: int, opp: np.ndarray) -> np.ndarray:
        """(G, |A_i|) CPT values against a batch of flat opponent mixes."""
        opp = np.atleast_2d(opp)
        return np.stack(
            [self.prefs[i].values(opp, self.outcomes(i, a)) for a in range(self.shape[i])],
            axis=1,
        )

    def region_slack(self, i: int, a: int, opp: np.ndarray) -> np.ndarray:
        """V(a) minus the best value, per opponent mix (>= 0 inside the region)."""
        vals = self.action_values(i, opp)
        return vals[:, a] - vals.max(axis=1)

    def region_points(self, i: int, a: int, tol: float) -> np.ndarray:
        """Default-grid points where a is weakly best (cached per (i, a, tol))."""
        key = (i, a, tol)
        if key not in self._regions:
            d = int(np.prod(self.shape)) // self.shape[i]
            res = default_resolution(d)
            grid = np.array(list(compositions(res, d)), dtype=float) / res
            self._regions[key] = grid[self.region_slack(i, a, grid) >= -tol]
        return self._regions[key]


def conditional(weights: np.ndarray, i: int, a: int) -> np.ndarray | None:
    """Flat opponent distribution given player i's action a (None if a unsupported)."""
    sl = np.take(weights, a, axis=i)
    m = math.fsum(sl.ravel())
    if m <= 0.0:
        return None
    return sl.ravel() / m


def correlated_margin(game: RefGame, weights: np.ndarray) -> float:
    """Worst slack V(a) - V(dev) over supported (i, a) and deviations dev."""
    worst = math.inf
    for i in range(game.n):
        for a in range(game.shape[i]):
            cond = conditional(weights, i, a)
            if cond is None:
                continue
            vals = game.action_values(i, cond)[0]
            others = np.delete(vals, a)
            if others.size:
                worst = min(worst, float(vals[a] - others.max()))
    return worst


def nash_margin(game: RefGame, factors: list[np.ndarray]) -> float:
    """Worst slack of a supported action against the others' product mix."""
    worst = math.inf
    for i in range(game.n):
        opp = np.ones(())
        for j, f in enumerate(factors):
            if j != i:
                opp = np.multiply.outer(opp, f)
        vals = game.action_values(i, opp.ravel())[0]
        for a in range(game.shape[i]):
            if factors[i][a] > 0.0:
                worst = min(worst, float(vals[a] - vals.max()))
    return worst


def pure_nash_profiles(payoffs: np.ndarray) -> list[tuple[int, ...]]:
    """Pure profiles where every player's payoff is maximal in her own column.

    Against a point mass, any increasing value function ranks actions by raw
    payoff, so this enumeration needs no CPT evaluation.
    """
    shape = payoffs.shape[1:]
    out = []
    for prof in np.ndindex(*shape):
        ok = True
        for i in range(len(shape)):
            column = [payoffs[i][prof[:i] + (a,) + prof[i + 1 :]] for a in range(shape[i])]
            if payoffs[i][prof] < max(column):
                ok = False
                break
        if ok:
            out.append(prof)
    return out


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in compositions(total - k, parts - 1):
            yield (k,) + rest


def hull_residual_highs(points: np.ndarray, target: np.ndarray) -> float:
    """min s s.t. |P^T theta - y|_inf <= s, theta in the simplex (HiGHS)."""
    from scipy.optimize import linprog

    P = np.asarray(points, dtype=float)
    y = np.asarray(target, dtype=float)
    k, d = P.shape
    if k == 0:
        return math.inf
    c = np.zeros(k + 1)
    c[-1] = 1.0
    ones = np.ones((d, 1))
    a_ub = np.vstack([np.hstack([P.T, -ones]), np.hstack([-P.T, -ones])])
    b_ub = np.concatenate([y, -y])
    a_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * (k + 1), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference hull LP failed: {res.message}")
    return float(res.fun)


def opponent_index(actions: np.ndarray, shape, i: int) -> np.ndarray:
    """Row-major flat index of the opponents' joint action at every step."""
    opp = [j for j in range(len(shape)) if j != i]
    return np.ravel_multi_index(tuple(actions[:, j] for j in opp), tuple(shape[j] for j in opp))


def regret_matrix(game: RefGame, i: int, actions: np.ndarray) -> np.ndarray:
    """CPT regret matrix of player i from an action log (T, n).

    Entry (a, d) is freq(a) * [V(d | cond_a) - V(a | cond_a)] with the
    conditional taken over the opponents' profiles on the steps where i
    played a; unplayed rows are zero.
    """
    t = actions.shape[0]
    k = game.shape[i]
    flat = opponent_index(actions, game.shape, i)
    n_opp = int(np.prod(game.shape)) // k
    out = np.zeros((k, k))
    for a in range(k):
        mask = actions[:, i] == a
        c_a = int(mask.sum())
        if c_a == 0:
            continue
        cond = np.bincount(flat[mask], minlength=n_opp) / c_a
        realized = game.prefs[i].values(cond, game.outcomes(i, a))[0]
        for d in range(k):
            if d != a:
                counter = game.prefs[i].values(cond, game.outcomes(i, d))[0]
                out[a, d] = c_a / t * (counter - realized)
    return out


def eut_regret_matrix(game: RefGame, i: int, actions: np.ndarray) -> np.ndarray:
    """Expected-utility regrets as direct payoff-difference sums.

    Entry (a, d) is (1/t) * sum over steps where i played a of
    u_i(d, a_-i) - u_i(a, a_-i): a second path, valid when player i has
    identity value and weights at reference 0.
    """
    t = actions.shape[0]
    k = game.shape[i]
    out = np.zeros((k, k))
    for row in actions:
        a = int(row[i])
        prof = list(row)
        realized = game.payoffs[i][tuple(prof)]
        for d in range(k):
            if d != a:
                prof[i] = d
                out[a, d] += game.payoffs[i][tuple(prof)] - realized
        prof[i] = a
    return out / t


def calibration_scores(forecasts, outcomes: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Per-outcome score sum_q |rho(q, y) - q(y)| N(q) / T, grouping equal forecasts."""
    t = len(outcomes)
    groups: dict[bytes, list] = {}
    for vec, y in zip(forecasts, outcomes):
        vec = np.asarray(vec, dtype=float)
        entry = groups.setdefault(vec.tobytes(), [vec, np.zeros(n_outcomes)])
        entry[1][int(y)] += 1.0
    score = np.zeros(n_outcomes)
    for vec, counts in groups.values():
        n_q = counts.sum()
        score += np.abs(counts / n_q - vec) * n_q / t
    return score
