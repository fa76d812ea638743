"""Cumulative-prospect-theory evaluation of finite lotteries.

A decision maker is described by a reference point, a value function that is
zero at the reference and strictly increasing, and two probability weighting
functions (one applied to gains, one to losses).  A lottery is a finite list
of (probability, outcome) pairs whose probabilities sum to one.  The CPT
value of a lottery is a rank-weighted sum: outcomes are sorted from best to
worst, cumulative probabilities are passed through the weighting functions,
and consecutive differences of the weighted cumulatives multiply the value
of each outcome.

Everything in this module is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_SUM_TOL",
    "WeightingFunction",
    "identity_weighting",
    "prelec_weighting",
    "tabulated_weighting",
    "ValueFunction",
    "identity_value",
    "piecewise_power_value",
    "CptPreferences",
    "eut_preferences",
    "Lottery",
    "evaluate_weight",
    "decision_weights",
    "cpt_value",
    "row_values",
    "cpt_values",
    "cpt_regret",
    "preferences_to_dict",
    "preferences_from_dict",
]


# ---------------------------------------------------------------------------
# probability weighting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightingFunction:
    """Strictly increasing map of [0, 1] onto itself with w(0)=0, w(1)=1.

    Kinds:
      * ``identity``   w(p) = p
      * ``prelec``     w(p) = exp(-(-ln p)**gamma) with gamma > 0
      * ``tabulated``  linear interpolation of a strictly monotone grid
    """

    kind: str
    gamma: float | None = None
    grid: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "identity":
            return
        if self.kind == "prelec":
            if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0:
                raise ValueError("prelec weighting needs gamma > 0")
            return
        if self.kind == "tabulated":
            if not self.grid or len(self.grid) < 2:
                raise ValueError("tabulated weighting needs at least two grid points")
            ps = np.array([p for p, _ in self.grid], dtype=float)
            ws = np.array([w for _, w in self.grid], dtype=float)
            if ps[0] != 0.0 or ps[-1] != 1.0 or ws[0] != 0.0 or ws[-1] != 1.0:
                raise ValueError("tabulated weighting endpoints must be (0,0) and (1,1)")
            if np.any(np.diff(ps) <= 0) or np.any(np.diff(ws) <= 0):
                raise ValueError("tabulated weighting must be strictly increasing")
            # kept outside the dataclass fields: ``grid`` alone is compared
            object.__setattr__(self, "_ps", ps)
            object.__setattr__(self, "_ws", ws)
            return
        raise ValueError(f"unknown weighting kind {self.kind!r}")

    def __call__(self, p):
        """Evaluate the weight at a scalar or array of probabilities.

        Outside [0, 1], Prelec and tabulated weights are 0 below 0 and 1
        above 1; the identity passes any value through.
        """
        arr = np.asarray(p, dtype=float, order="C")
        q = arr.reshape(-1)
        if self.kind != "identity":
            q = np.minimum(np.maximum(q, 0.0), 1.0)
        out = self._weigh(q).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    def _weigh(self, q: np.ndarray, zero: bool = True) -> np.ndarray:
        """The weights of a C-contiguous 1-d array of probabilities in [0, 1].

        ``exp``, ``log`` and ``pow`` see a C-contiguous 1-d array: a strided
        array takes another inner loop, and a NumPy scalar another ``pow``,
        either of which can round differently.  IEEE special values give
        w(0) = 0 and w(1) = 1 exactly: log(0) = -inf, exp(-inf) = 0 and
        log(1) = 0.  ``zero=False`` promises that ``q`` holds no 0, so
        Prelec skips the ``np.errstate`` that silences log(0): entering it
        costs more than weighing a few boundaries.
        """
        if self.kind == "identity":
            return q.copy()
        if self.kind == "prelec":
            if zero:
                with np.errstate(divide="ignore"):
                    return np.exp(-((-np.log(q)) ** self.gamma))
            return np.exp(-((-np.log(q)) ** self.gamma))
        return np.interp(q, self._ps, self._ws)


def identity_weighting() -> WeightingFunction:
    return WeightingFunction("identity")


def prelec_weighting(gamma: float) -> WeightingFunction:
    return WeightingFunction("prelec", gamma=float(gamma))


def tabulated_weighting(points: Sequence[tuple[float, float]]) -> WeightingFunction:
    return WeightingFunction("tabulated", grid=tuple((float(p), float(w)) for p, w in points))


def evaluate_weight(w: WeightingFunction, p: float) -> float:
    """Evaluate ``w`` at probability ``p``, rejecting out-of-domain input."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    return float(w(p))


# ---------------------------------------------------------------------------
# outcome valuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueFunction:
    """Reference-dependent valuation of payoffs, zero at the reference.

    ``identity`` maps z to z - reference.  ``piecewise_power`` raises gains
    to ``alpha``, losses to ``beta`` scaled by ``loss_aversion``:

        v(z) = (z - r)**alpha          for z >= r
        v(z) = -L * (r - z)**beta      for z <  r
    """

    reference: float
    kind: str = "identity"
    alpha: float | None = None
    beta: float | None = None
    loss_aversion: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.reference):
            raise ValueError("reference point must be finite")
        if self.kind == "identity":
            return
        if self.kind != "piecewise_power":
            raise ValueError(f"unknown value kind {self.kind!r}")
        for name, lo, hi in (("alpha", 0.0, 1.0), ("beta", 0.0, 1.0)):
            x = getattr(self, name)
            if x is None or not (lo < x <= hi):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.loss_aversion is None or not 1.0 <= self.loss_aversion < np.inf:  # NaN fails
            raise ValueError("loss_aversion must be finite and >= 1")

    def __call__(self, z):
        arr = np.asarray(z, dtype=float)
        # a scalar takes the array loop's pow: NumPy's scalar ``**`` rounds differently
        d = (arr.reshape(1) if arr.ndim == 0 else arr) - self.reference
        if self.kind == "identity":
            out = d
        else:
            a = np.abs(d)
            out = np.where(d >= 0.0, a**self.alpha, -self.loss_aversion * a**self.beta)
        return float(out[0]) if arr.ndim == 0 else out


def identity_value(reference: float = 0.0) -> ValueFunction:
    return ValueFunction(reference=float(reference), kind="identity")


def piecewise_power_value(
    reference: float, alpha: float, beta: float, loss_aversion: float
) -> ValueFunction:
    return ValueFunction(
        reference=float(reference),
        kind="piecewise_power",
        alpha=float(alpha),
        beta=float(beta),
        loss_aversion=float(loss_aversion),
    )


@dataclass(frozen=True)
class CptPreferences:
    """Bundle of value function and gain/loss weighting functions."""

    value: ValueFunction
    weight_gain: WeightingFunction
    weight_loss: WeightingFunction

    @property
    def reference(self) -> float:
        return self.value.reference


def eut_preferences() -> CptPreferences:
    """Expected-utility special case: identity value and weights, reference 0."""
    return CptPreferences(identity_value(), identity_weighting(), identity_weighting())


# ---------------------------------------------------------------------------
# lotteries
# ---------------------------------------------------------------------------


def _as_probabilities(probs, label: str) -> tuple[np.ndarray, list[float], float]:
    """Validated, clipped copy of a probability vector, the same entries as
    Python floats, and their exact sum."""
    p = np.array(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{label} must be a nonempty 1-d vector")
    q = p.tolist()
    lo, hi = min(q), max(q)
    # min and max are infinite if any entry is, and NaN if the first entry
    # is; a later NaN only shows in the plain sum
    if not (math.isfinite(lo) and math.isfinite(hi)) or math.isnan(sum(q)):
        raise ValueError(f"{label} must be finite")
    if lo < -PROB_SUM_TOL or hi > 1.0 + PROB_SUM_TOL:
        raise ValueError(f"{label} entries must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        np.clip(p, 0.0, 1.0, out=p)
        q = p.tolist()
    # exactly rounded summation keeps the acceptance decision independent of
    # the entry order; entries are stored as given and the off-by-epsilon
    # mass is normalized away inside the cumulative evaluation
    s = math.fsum(q)
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{label} must sum to 1 (got {s!r})")
    return p, q, s


@dataclass(frozen=True, eq=False)
class Lottery:
    """Exhaustive finite lottery: probabilities and real outcomes.

    Zero-probability entries and repeated outcomes are allowed.  The
    probability vector must sum to one within ``PROB_SUM_TOL``; entries are
    stored as given and any sub-tolerance mass deviation is normalized away
    during evaluation.  A lottery is validated and summed once: it keeps
    its entries as Python floats and their exactly rounded mass, which
    evaluation reads.
    """

    probs: np.ndarray
    outcomes: np.ndarray

    def __init__(self, probs, outcomes):
        p, p_floats, mass = _as_probabilities(probs, "lottery probabilities")
        z = np.array(outcomes, dtype=float)
        if z.shape != p.shape:
            raise ValueError("probabilities and outcomes must have equal length")
        z_floats = z.tolist()
        if not all(map(math.isfinite, z_floats)):
            raise ValueError("outcomes must be finite")
        p.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "outcomes", z)
        # what evaluation reads; not dataclass fields, so the repr shows the arrays alone
        object.__setattr__(self, "_p", p_floats)
        object.__setattr__(self, "_z", z_floats)
        object.__setattr__(self, "_mass", mass)

    def __len__(self) -> int:
        return self.probs.size


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _rank(z: list[float]) -> list[int]:
    """Indices sorting outcomes ``z`` from largest to smallest.

    Ties keep ascending original order (the sort is stable), so runs are
    reproducible; the CPT value does not depend on how ties are broken.
    """
    return sorted(range(len(z)), key=z.__getitem__, reverse=True)


def _block_cumulative(p: list[float], z: list[float], total: float) -> list[float]:
    """Cumulative probabilities with order-canonical tie-block boundaries.

    Weighting functions may have unbounded slope at the endpoints, so a
    one-ulp difference in a cumulative sum (tied outcomes added in a
    different order, a padded zero entry, or a probability vector off one
    ulp from mass one) would otherwise leak into the value.  Block
    boundaries are exactly rounded prefix sums divided by the exactly
    rounded total mass, which pins them to identical floats for every
    permutation and padding and makes a full-mass cumulative exactly one.
    Entries inside a block keep a sequential running sum from the block's
    start, whose evaluation cancels when the block telescopes.
    """
    cum = []
    start = 0.0
    i = 0
    t = len(p)
    while i < t:
        j = i + 1
        while j < t and z[j] == z[i]:
            j += 1
        if j - i > 1:
            cum.extend(start + s for s in accumulate(p[i : j - 1]))
        start = math.fsum(p[:j])
        cum.append(start)
        i = j
    # the sums are nonnegative, so only the upper end of [0, 1] can bind
    return [min(c / total, 1.0) for c in cum]


def _ranked_weights(
    p: list[float], z: list[float], total: float, prefs: CptPreferences
) -> tuple[list[float], int]:
    """``decision_weights`` of outcomes ``z`` sorted best to worst, with their
    probabilities ``p`` in the same order and exactly rounded mass ``total``.

    Boundaries are Python floats in [0, 1]; each weighting function sees
    them as one C-contiguous array in best-to-worst order, past the clamp of
    its public call.  Each side's sums start at its far end (the best gain,
    the worst loss) and only add nonnegative mass, so the first is 0
    whenever any boundary is.
    """
    ref = prefs.reference
    t = len(z)
    split = 0
    while split < t and z[split] >= ref:
        split += 1
    gains, losses = p[:split], p[split:]
    if gains and prefs.weight_gain.kind != "identity":
        cum = _block_cumulative(gains, z[:split], total)
        w = prefs.weight_gain._weigh(np.array(cum), zero=cum[0] == 0.0).tolist()
        gains = [b - a for a, b in zip([0.0] + w, w)]
    if losses and prefs.weight_loss.kind != "identity":
        tail = _block_cumulative(losses[::-1], z[split:][::-1], total)
        w = prefs.weight_loss._weigh(np.array(tail[::-1]), zero=tail[0] == 0.0).tolist()
        losses = [a - b for a, b in zip(w, w[1:] + [0.0])]
    # weighting functions are increasing, so weights are nonnegative up to
    # rounding of the cumulative sums
    return [x if x > 0.0 else 0.0 for x in gains + losses], split


def decision_weights(lottery: Lottery, prefs: CptPreferences) -> tuple[np.ndarray, int]:
    """Rank-dependent decision weights along the best-to-worst ordering.

    Returns ``(pi, split)`` where ``pi[j]`` weights the j-th best outcome and
    ``split`` is the number of gain entries (outcomes >= reference count as
    gains).  Gains take differences of the gain-weighted cumulative from the
    top; losses take differences of the loss-weighted cumulative from the
    bottom.  With identity weighting the weights are exactly the sorted
    probabilities.
    """
    p, z = lottery._p, lottery._z
    order = _rank(z)
    ranked = [p[k] for k in order]
    pi, split = _ranked_weights(ranked, [z[k] for k in order], lottery._mass, prefs)
    return np.array(pi), split


def _value(p: list[float], z: list[float], total: float, prefs: CptPreferences) -> float:
    """CPT value of outcomes ``z`` with validated probabilities ``p`` of
    exactly rounded mass ``total``: the one rank-dependent evaluation.

    It runs on Python floats except where NumPy fixes the rounding: the
    weighting and value functions' ufuncs, on C-contiguous arrays, and one
    ``np.dot`` per row.
    """
    order = _rank(z)
    ranked = [z[k] for k in order]
    pi, _ = _ranked_weights([p[k] for k in order], ranked, total, prefs)
    return float(np.dot(np.array(pi), prefs.value(np.array(ranked))))


def row_values(probs, outcome_rows, prefs: CptPreferences) -> np.ndarray:
    """CPT values of the k lotteries paying row r of ``outcome_rows`` (k, d)
    with the d ``probs``, such as a player's actions against one opponent mix.

    The probabilities are validated and summed once; each row is valued
    exactly as a lone lottery.
    """
    _, p, total = _as_probabilities(probs, "lottery probabilities")
    rows = np.asarray(outcome_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(p) or not np.isfinite(rows).all():
        raise ValueError("outcome rows must be a finite (k, d) matrix over d probabilities")
    return np.array([_value(p, z, total, prefs) for z in rows.tolist()])


def cpt_value(lottery: Lottery, prefs: CptPreferences) -> float:
    """CPT value of a lottery: decision weights times outcome values."""
    return _value(lottery._p, lottery._z, lottery._mass, prefs)


def cpt_values(probs, outcomes, prefs: CptPreferences) -> np.ndarray:
    """CPT values of G lotteries over one shared outcome vector.

    ``probs`` is a (G, d) array whose rows are probability vectors over the
    d ``outcomes``; returns the (G,) values ``cpt_value(Lottery(row,
    outcomes), prefs)`` within rounding.  The rank order, the tie blocks
    and the gain/loss split depend on the outcomes alone, so they are found
    once: tied columns are merged, gain boundaries are running sums from
    the top and loss boundaries running sums from the bottom, each divided
    by the row's mass, and each weighting function is called once on the
    whole array.  A boundary whose complement has zero mass is pinned to
    exactly 1.0, as ``decision_weights`` pins a full-mass cumulative.
    Other boundaries are running sums rather than exactly rounded prefix
    sums: on rows of integer weights over a common denominator, such as
    simplex grids, values agree with ``cpt_value`` within 1e-12.
    """
    p = np.asarray(probs, dtype=float)
    z = np.asarray(outcomes, dtype=float)
    if p.ndim != 2 or z.shape != (p.shape[1],) or z.size == 0:
        raise ValueError("probabilities must be (G, d) over d outcomes")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(z))):
        raise ValueError("probabilities and outcomes must be finite")
    if np.any(p < -PROB_SUM_TOL) or np.any(p > 1.0 + PROB_SUM_TOL):
        raise ValueError("lottery probabilities must lie in [0, 1]")
    order = np.argsort(-z, kind="stable")
    zs = z[order]
    starts = np.flatnonzero(np.concatenate(([True], zs[1:] != zs[:-1])))
    zg = zs[starts]
    pg = np.add.reduceat(np.clip(p[:, order], 0.0, 1.0), starts, axis=1)
    above = np.cumsum(pg, axis=1)  # mass of each block and every better one
    below = np.cumsum(pg[:, ::-1], axis=1)[:, ::-1]  # each block and every worse one
    mass = above[:, -1:]
    if np.any(np.abs(mass - 1.0) > PROB_SUM_TOL):
        raise ValueError("lottery probabilities must sum to 1")
    zero = np.zeros_like(mass)
    better = np.hstack((zero, above[:, :-1]))  # mass strictly better than each block
    worse = np.hstack((below[:, 1:], zero))
    split = int(np.count_nonzero(zg >= prefs.reference))
    pi = np.empty_like(pg)
    if split > 0:
        cum = np.minimum(above[:, :split] / mass, 1.0)
        cum[worse[:, :split] == 0.0] = 1.0
        w = prefs.weight_gain(cum)
        pi[:, :split] = np.diff(w, axis=1, prepend=0.0)
    if split < zg.size:
        cum = np.minimum(below[:, split:] / mass, 1.0)
        cum[better[:, split:] == 0.0] = 1.0
        w = prefs.weight_loss(cum)
        pi[:, split:] = w - np.hstack((w[:, 1:], zero))
    np.clip(pi, 0.0, None, out=pi)
    return pi @ prefs.value(zg)


def cpt_regret(probs, counterfactual, realized, prefs: CptPreferences) -> float:
    """CPT value of the counterfactual outcomes minus that of the realized
    ones, both paid with the same ``probs``."""
    hypothetical, actual = row_values(probs, (counterfactual, realized), prefs)
    return float(hypothetical - actual)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _weighting_to_dict(w: WeightingFunction) -> dict:
    if w.kind == "identity":
        return {"kind": "identity"}
    if w.kind == "prelec":
        return {"kind": "prelec", "gamma": w.gamma}
    return {"kind": "tabulated", "points": [list(pt) for pt in w.grid]}


def _weighting_from_dict(d: dict) -> WeightingFunction:
    kind = d["kind"]
    if kind == "identity":
        return identity_weighting()
    if kind == "prelec":
        return prelec_weighting(d["gamma"])
    if kind == "tabulated":
        return tabulated_weighting([tuple(pt) for pt in d["points"]])
    raise ValueError(f"unknown weighting kind {kind!r}")


def preferences_to_dict(prefs: CptPreferences) -> dict:
    """JSON form: {reference, value:{kind,...}, weight_gain:{...}, weight_loss:{...}}."""
    v = prefs.value
    if v.kind == "identity":
        value = {"kind": "identity"}
    else:
        value = {
            "kind": "piecewise-power",
            "alpha": v.alpha,
            "beta": v.beta,
            "loss_aversion": v.loss_aversion,
        }
    return {
        "reference": v.reference,
        "value": value,
        "weight_gain": _weighting_to_dict(prefs.weight_gain),
        "weight_loss": _weighting_to_dict(prefs.weight_loss),
    }


def preferences_from_dict(d: dict) -> CptPreferences:
    ref = float(d["reference"])
    v = d["value"]
    if v["kind"] == "identity":
        value = identity_value(ref)
    elif v["kind"] == "piecewise-power":
        value = piecewise_power_value(ref, v["alpha"], v["beta"], v["loss_aversion"])
    else:
        raise ValueError(f"unknown value kind {v['kind']!r}")
    return CptPreferences(
        value=value,
        weight_gain=_weighting_from_dict(d["weight_gain"]),
        weight_loss=_weighting_from_dict(d["weight_loss"]),
    )
