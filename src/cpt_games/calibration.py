"""Calibration scoring and an epsilon-grid calibrated forecaster.

A forecaster repeatedly predicts a distribution over a finite outcome set;
Nature then reveals an outcome.  The calibration score of outcome ``y`` is
the frequency-weighted discrepancy between each distinct forecast and the
empirical outcome rate on the steps it was issued:

    score(y) = sum_q |rho(q, y, t) - q(y)| * N(q, t) / t

where N counts the steps forecasting q and rho is the empirical frequency
of y on those steps (zero when N is zero).  Forecast equality is dictionary
identity: forecasts are indices into a finite dictionary of vectors, so the
bookkeeping is exact.

The forecaster restricts its predictions to the simplex grid of pitch
``epsilon`` and drives its internal (pairwise-swap) regret under the
quadratic checking loss ``|q - indicator(y)|^2`` to zero by playing the
invariant distribution of the positive-part regret matrix.  Vanishing
internal regret over the grid forces every forecast's conditional outcome
frequency toward the forecast itself up to the grid pitch, which is what
the score measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .games import simplex_grid

__all__ = [
    "ForecastRecord",
    "calibration_score",
    "CalibratedForecaster",
]

# restart probability of the damped chain whose invariant vector is played
_DELTA = 1e-9


@dataclass(eq=False)
class ForecastRecord:
    """Log of dictionary forecasts and realized outcomes.

    ``dictionary[id]`` is the forecast vector; ``forecasts[t]`` the id used
    at step t (0-based); ``outcomes[t]`` the realized outcome index.
    """

    n_outcomes: int
    dictionary: list[np.ndarray] = field(default_factory=list, init=False)
    forecasts: list[int] = field(default_factory=list, init=False)
    outcomes: list[int] = field(default_factory=list, init=False)
    _keys: dict = field(default_factory=dict, init=False)

    def intern(self, vector: np.ndarray) -> int:
        """Id of a forecast vector, adding it to the dictionary if new."""
        key = np.asarray(vector, dtype=float).tobytes()
        idx = self._keys.get(key)
        if idx is None:
            idx = len(self.dictionary)
            self._keys[key] = idx
            self.dictionary.append(np.asarray(vector, dtype=float).copy())
        return idx

    @classmethod
    def from_steps(cls, n_outcomes: int, vectors, ids: np.ndarray, outcomes: np.ndarray) -> ForecastRecord:
        """Record of the steps s that forecast ``vectors[ids[s]]`` and saw ``outcomes[s]``.

        Vectors are interned in order of first use, so the record's ids, and
        the order ``calibration_score`` sums in, follow the steps.
        """
        rec = cls(n_outcomes)
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(vectors):
            raise ValueError("forecast id not in the dictionary")
        if len(outcomes) and not 0 <= outcomes.min() <= outcomes.max() < n_outcomes:
            raise ValueError("outcome index out of range")
        steps = ids.tolist()
        remap = {k: rec.intern(vectors[k]) for k in dict.fromkeys(steps)}
        rec.forecasts = [remap[k] for k in steps]
        rec.outcomes = outcomes.tolist()
        return rec

    def append(self, forecast_id: int, outcome: int) -> None:
        if not 0 <= forecast_id < len(self.dictionary):
            raise ValueError("forecast id not in the dictionary")
        if not 0 <= outcome < self.n_outcomes:
            raise ValueError("outcome index out of range")
        self.forecasts.append(forecast_id)
        self.outcomes.append(outcome)

    def __len__(self) -> int:
        return len(self.forecasts)


def calibration_score(record: ForecastRecord) -> np.ndarray:
    """Per-outcome calibration scores of the whole record."""
    t = len(record)
    if t == 0:
        raise ValueError("calibration score needs a nonempty record")
    ids = np.asarray(record.forecasts, dtype=np.intp)
    ys = np.asarray(record.outcomes, dtype=np.intp)
    n_ids = len(record.dictionary)
    counts = np.zeros((n_ids, record.n_outcomes))
    np.add.at(counts, (ids, ys), 1.0)
    n_q = counts.sum(axis=1)
    used = n_q > 0
    q_mat = np.array([record.dictionary[k] for k in range(n_ids)])
    rho = np.zeros_like(counts)
    rho[used] = counts[used] / n_q[used, None]
    return (np.abs(rho[used] - q_mat[used]) * (n_q[used, None] / t)).sum(axis=0)


class CalibratedForecaster:
    """Randomized forecaster over the epsilon-grid of the outcome simplex.

    ``predict`` samples a grid forecast from the invariant distribution of
    the normalized positive-part regret matrix; ``observe`` charges the
    quadratic checking loss of the issued forecast against every
    alternative and updates that forecast's positive-part regret row and
    its row sum, the only ones the step changes.  Long-run calibration
    scores are bounded by a constant times the grid pitch, almost surely,
    for any outcome sequence that does not react to the current forecast.

    The invariant distribution comes from a damped direct solve of the
    balance equations, re-solved only after a step changed a positive
    regret row; otherwise ``predict`` samples the kept play.  A step whose
    issued forecast had and keeps no positive regret changes nothing the
    solve reads.  A grid point whose positive regret
    row is zero (a forecast never issued, or one whose regrets all went
    non-positive) is absorbing up to the restart, so its column of the
    balance matrix is the restart rate times a unit vector and the system
    is block-triangular: the points whose rows have been positive at some
    step are solved on their own block, and every other point follows from
    them in closed form.  The positive regrets are kept in slot order, with
    those points in the leading slots in the order they went live, so the
    block is a leading slice of the kept matrix.  Forecasters issue a new
    grid point nearly every step, so the block grows with the step count
    rather than with the grid.  A solve whose result is not a finite,
    non-negative vector of positive mass raises ``RuntimeError``.

    ``predicts``, ``solves`` and ``solve_flop`` count the forecasts drawn,
    the live blocks solved and the sum of m**3 / 3 over those m-point
    blocks.
    """

    def __init__(self, n_outcomes: int, epsilon: float):
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        self.n_outcomes = int(n_outcomes)
        self.epsilon = float(epsilon)
        self.resolution = max(1, math.ceil(1.0 / epsilon))
        self.grid = simplex_grid(self.n_outcomes, self.resolution)
        q = self.grid.shape[0]
        # loss[k, y] = ||grid[k] - e_y||^2
        sq = (self.grid**2).sum(axis=1)
        self.loss = sq[:, None] + 1.0 - 2.0 * self.grid
        self._regret = np.zeros((q, q))
        # positive part of _regret and its row sums in slot order, kept up to
        # date by observe: slot r holds grid point _point[r], _slot[k] is the
        # slot of grid point k
        self._pos = np.zeros((q, q))
        self._rows = np.zeros(q)
        self._play = np.full(q, 1.0 / q)
        self._rhs = np.full(q, _DELTA / q)
        self._abuf = np.empty(q * q)
        # points whose rows have been positive hold slots [0, _m) in the
        # order they went live
        self._point = np.arange(q)
        self._slot = np.arange(q)
        self._m = 0
        # cumulative sums of _play, which is current unless _stale
        self._cum = self._play.cumsum()
        self._stale = False
        self._last: int | None = None
        self.predicts = 0
        self.solves = 0
        self.solve_flop = 0.0

    def _go_live(self, r: int) -> int:
        """Swap slot r into slot ``_m`` and make it live; returns its new slot."""
        # neither point was ever live, so rows r and m and their sums are zero
        m = self._m
        pos = self._pos
        pos[:, [r, m]] = pos[:, [m, r]]
        k, other = self._point[r], self._point[m]
        self._point[r], self._point[m] = other, k
        self._slot[k], self._slot[other] = m, r
        self._m = m + 1
        return m

    def _invariant_play(self) -> np.ndarray:
        pos = self._pos
        rows = self._rows
        kappa = rows.max()
        if kappa <= 0.0:
            return self._play
        q = rows.size
        # damped balance equations: the chain moving along positive regrets,
        # restarted uniformly with probability delta, has a unique invariant
        # vector and a provably nonsingular system
        #   A p = delta / q,  A = (I - (1-delta) P)^T
        # with P = pos/kappa + diag(1 - rows/kappa), in slot order.  A slot j
        # with rows[j] == 0 has column delta * e_j in A, so the slots r < m
        # of points ever live (a superset of the live ones) solve alone, and
        # row j of the system gives, for j >= m,
        #   p_j = 1/q + (scale/delta) * sum_{i < m} pos[i, j] p_i.
        delta = _DELTA
        scale = (1.0 - delta) / kappa
        m = self._m
        # a.T is A restricted to the live slots
        a = self._abuf[: m * m].reshape(m, m)
        np.multiply(pos[:m, :m], -scale, out=a)
        diag = self._abuf[: m * m : m + 1]
        np.multiply(rows[:m], scale, out=diag)
        diag += delta
        p = np.linalg.solve(a.T, self._rhs[:m])
        self.solves += 1
        self.solve_flop += m**3 / 3.0
        if m < q:
            full = p @ pos[:m]
            full *= scale / delta
            full += 1.0 / q
            full[:m] = p
            p = full
        p = p[self._slot]
        lo = p.min()
        s = p.sum()
        # a NaN entry fails the min test, an infinite one the sum test
        if not (lo >= -1e-9 and 0.0 < s < math.inf):
            raise RuntimeError(
                f"invariant play of the {m}-point live block is not a distribution"
            )
        if lo < 0.0:
            np.maximum(p, 0.0, out=p)
            s = p.sum()
        p /= s
        return p

    def predict(self, u: float) -> int:
        """Sample the next forecast at a uniform u in [0, 1); returns its grid index."""
        if not 0.0 <= u < 1.0:
            raise ValueError("u must lie in [0, 1)")
        self.predicts += 1
        if self._stale:
            self._play = self._invariant_play()
            self._cum = self._play.cumsum()
            self._stale = False
        k = int(self._cum.searchsorted(u, side="right"))
        self._last = min(k, self._cum.size - 1)
        return self._last

    def observe(self, outcome: int) -> None:
        """Charge the checking loss of the last forecast against outcome."""
        if self._last is None:
            raise RuntimeError("observe called before predict")
        if not 0 <= outcome < self.n_outcomes:
            raise ValueError("outcome index out of range")
        k = self._last
        row = self._regret[k]
        row += self.loss[k, outcome] - self.loss[:, outcome]
        pos_k = np.maximum(row, 0.0)
        total = pos_k.sum()
        r = self._slot[k]
        # a row that had and keeps no positive regret leaves the play as it is
        if total > 0.0 or self._rows[r] > 0.0:
            self._stale = True
        if r >= self._m and total > 0.0:
            r = self._go_live(r)
        self._rows[r] = total
        self._pos[r] = pos_k[self._point]
        self._last = None
