"""Finite normal-form games and distributions over action profiles.

A game holds per-player action labels, a fully populated payoff tensor of
shape ``(n, |A_1|, ..., |A_n|)``, and per-player CPT preferences.  Joint
distributions are stored as arrays with one axis per player; flattening is
always row-major over the player axes in player order, which fixes the
on-disk layout of payoff tensors and distribution vectors.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cpt import PROB_SUM_TOL, CptPreferences, Lottery, eut_preferences

__all__ = [
    "UnsupportedActionError",
    "Game",
    "JointDistribution",
    "ProductDistribution",
    "OpponentDistribution",
    "marginal",
    "conditional",
    "induced_lottery",
    "player_rows",
    "empirical_update",
    "product_join",
]


class UnsupportedActionError(ValueError):
    """Conditioning on an action that has zero marginal probability."""

    def __init__(self, player: int, action: int):
        self.player = player
        self.action = action
        super().__init__(f"player {player} action {action} has zero probability")


@dataclass(frozen=True)
class Game:
    """n-player normal-form game with CPT preferences attached.

    ``payoffs[i]`` is indexed by the full action profile, so
    ``payoffs[i][a_1, ..., a_n]`` is player i's payoff.  Games without an
    explicit preference profile get the expected-utility default (identity
    value at reference 0, identity weights).
    """

    actions: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray
    prefs: tuple[CptPreferences, ...]

    def __init__(self, actions, payoffs, prefs=None):
        labels = tuple(tuple(str(a) for a in acts) for acts in actions)
        n = len(labels)
        if n < 2:
            raise ValueError("a game needs at least two players")
        if any(len(acts) < 1 for acts in labels):
            raise ValueError("every player needs at least one action")
        shape = tuple(len(acts) for acts in labels)
        tensor = np.asarray(payoffs, dtype=float)
        if tensor.shape != (n,) + shape:
            raise ValueError(
                f"payoff tensor shape {tensor.shape} does not match (n, |A_1|, ..., |A_n|) = {(n,) + shape}"
            )
        if not np.all(np.isfinite(tensor)):
            raise ValueError("payoffs must be finite")
        if prefs is None:
            prefs = tuple(eut_preferences() for _ in range(n))
        prefs = tuple(prefs)
        if len(prefs) != n:
            raise ValueError("need one preference bundle per player")
        tensor = tensor.copy()
        tensor.setflags(write=False)
        object.__setattr__(self, "actions", labels)
        object.__setattr__(self, "payoffs", tensor)
        object.__setattr__(self, "prefs", prefs)

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.actions)

    def num_actions(self, i: int) -> int:
        return len(self.actions[i])

    def opponent_shape(self, i: int) -> tuple[int, ...]:
        return tuple(s for j, s in enumerate(self.shape) if j != i)

    def num_opponent_profiles(self, i: int) -> int:
        return int(math.prod(self.opponent_shape(i)))


def _validate_joint(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float).copy()
    if w.size == 0:
        raise ValueError("distribution has no mass")
    # min and max are NaN if any entry is, and infinite if any entry is
    lo, hi = float(w.min()), float(w.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("distribution weights must be finite")
    if lo < -PROB_SUM_TOL:
        raise ValueError("distribution weights must be nonnegative")
    if lo <= 0.0:
        # np.maximum also turns -0.0 into 0.0, which ``min`` need not report
        np.maximum(w, 0.0, out=w)
    # only entries above 1 can overflow the sum to inf, which the mass check rejects
    with np.errstate(over="ignore") if hi > 1.0 else contextlib.nullcontext():
        s = float(w.sum())
    if s == 0.0:
        raise ValueError("distribution has no mass")
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"distribution must sum to 1 (got {s!r})")
    if s != 1.0:
        w = w / s
    return w


@dataclass(frozen=True)
class JointDistribution:
    """Probability distribution over full action profiles.

    ``weights`` has one axis per player and unit mass.
    """

    weights: np.ndarray

    def __init__(self, weights):
        w = _validate_joint(weights)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def point_mass(cls, shape: Sequence[int], profile: Sequence[int]) -> "JointDistribution":
        w = np.zeros(tuple(shape))
        w[tuple(profile)] = 1.0
        return cls(w)

    @classmethod
    def from_flat(cls, flat, shape: Sequence[int]) -> "JointDistribution":
        return cls(np.asarray(flat, dtype=float).reshape(tuple(shape)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    def flat(self) -> np.ndarray:
        return self.weights.ravel()


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-player mixed actions."""

    factors: tuple[np.ndarray, ...]

    def __init__(self, factors):
        fs = []
        for k, f in enumerate(factors):
            v = _validate_joint(np.asarray(f, dtype=float))
            if v.ndim != 1:
                raise ValueError(f"factor {k} must be a 1-d distribution")
            v.setflags(write=False)
            fs.append(v)
        if len(fs) < 2:
            raise ValueError("a product distribution needs at least two factors")
        object.__setattr__(self, "factors", tuple(fs))

    def opponent_mix(self, i: int) -> "OpponentDistribution":
        """Joint distribution of everyone except player i (a product)."""
        return OpponentDistribution(i, _outer(self.factors[:i] + self.factors[i + 1 :]))


def _outer(factors) -> np.ndarray:
    """Outer product of 1-d factors, one axis per factor in the given order."""
    return functools.reduce(np.multiply.outer, factors)


@dataclass(frozen=True)
class OpponentDistribution:
    """Distribution over the opponents' joint actions for one player.

    ``weights`` has one axis per opponent, in ascending player order with
    the designated player removed.
    """

    player: int
    weights: np.ndarray

    def __init__(self, player: int, weights):
        w = _validate_joint(np.asarray(weights, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "player", int(player))
        object.__setattr__(self, "weights", w)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    def flat(self) -> np.ndarray:
        return self.weights.ravel()


def marginal(mu: JointDistribution, i: int) -> np.ndarray:
    """Marginal distribution of player i's action under ``mu``."""
    axes = tuple(j for j in range(mu.weights.ndim) if j != i)
    return mu.weights.sum(axis=axes)


def conditional(
    mu: JointDistribution, i: int, a_i: int, m: np.ndarray | None = None
) -> OpponentDistribution:
    """Opponent-profile distribution given that player i was told ``a_i``.

    ``m`` is ``marginal(mu, i)`` when the caller has it already.  Raises
    :class:`UnsupportedActionError` when the marginal probability of
    ``a_i`` is zero; callers that want the zero-row convention used by
    empirical regret tracking must branch on that error explicitly.
    """
    if m is None:
        m = marginal(mu, i)
    if m[a_i] <= 0.0:
        raise UnsupportedActionError(i, a_i)
    slice_ = np.take(mu.weights, a_i, axis=i)
    return OpponentDistribution(i, slice_ / m[a_i])


def player_rows(tensor, i: int) -> np.ndarray:
    """Player i's (|A_i|, d) matrix of a tensor with one axis per player.

    Row a lists the entries where i plays a in ``OpponentDistribution.flat``
    order; ``player_rows(game.payoffs[i], i)`` is i's outcome matrix.
    """
    t = np.asarray(tensor)
    # the transpose np.moveaxis(t, i, 0) builds, without its dispatch cost
    return t.transpose((i, *range(i), *range(i + 1, t.ndim))).reshape(t.shape[i], -1)


def induced_lottery(game: Game, i: int, pi: OpponentDistribution, a_i: int) -> Lottery:
    """Lottery player i faces playing ``a_i`` against opponent mix ``pi``."""
    if pi.player != i:
        raise ValueError("opponent distribution belongs to a different player")
    # row a_i of player_rows(game.payoffs[i], i), without building the others
    return Lottery(pi.flat(), game.payoffs[(i,) + (slice(None),) * i + (a_i,)].ravel())


def empirical_update(
    xi: JointDistribution, profile: Sequence[int], t: int
) -> JointDistribution:
    """Running empirical average after observing ``profile`` at step ``t``.

    ``xi`` is the average of the first t-1 profiles; at t == 1 it is
    multiplied by zero, so any distribution of the right shape will do.
    """
    if t < 1:
        raise ValueError("step must be >= 1")
    w = xi.weights * float(t - 1)
    w[tuple(profile)] += 1.0
    return JointDistribution(w / float(t))


def product_join(pd: ProductDistribution) -> JointDistribution:
    """Outer product of the per-player factors."""
    return JointDistribution(_outer(pd.factors))
