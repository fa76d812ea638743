"""Mediated games: abstract signal sets, mediator distributions, strategies.

A mediated game augments a base game with per-player finite signal sets and
a mediator distribution over signal profiles.  A randomized strategy maps
each received signal to a mixed action.  The pushforward of the mediator
through a strategy profile induces a joint distribution over action
profiles; a strategy profile is a mediated equilibrium when, conditional on
every positive-probability signal, the supported actions maximize CPT value
against the signal's induced opponent-action distribution.

``construct_mediator`` reverses the direction: given a joint distribution
whose conditionals are convex combinations of acceptance-region points, it
builds an explicit mediator over action-plus-index signals together with
the obedient pure strategy profile reproducing the distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import DEFAULT_TOL, Certificate, _conditionals, _deviation_certificate
from .games import Game, JointDistribution, OpponentDistribution, marginal, opponent_strides

WITNESS_MIX_TOL = 1e-6

__all__ = [
    "UnsupportedSignalError",
    "InvalidWitnessError",
    "MediatedGame",
    "RandomizedStrategyProfile",
    "identity_mediated_game",
    "obedient_profile",
    "induced_action_distribution",
    "signal_assessment",
    "verify_mediated_nash",
    "construct_mediator",
    "reduce_convex_witness",
]


class UnsupportedSignalError(ValueError):
    """Conditioning on a signal the mediator never sends."""

    def __init__(self, player: int, signal: int):
        self.player = player
        self.signal = signal
        super().__init__(f"player {player} signal {signal} has zero probability")


class InvalidWitnessError(ValueError):
    """Hull witnesses that fail the convex-combination precondition."""


@dataclass(frozen=True, eq=False)
class MediatedGame:
    """Base game plus per-player signal labels and a mediator distribution."""

    base: Game
    signals: tuple[tuple[str, ...], ...]
    mediator: JointDistribution

    def __init__(self, base: Game, signals, mediator: JointDistribution):
        labels = tuple(tuple(str(s) for s in sig) for sig in signals)
        if len(labels) != base.n:
            raise ValueError("need one signal set per player")
        shape = tuple(len(sig) for sig in labels)
        if mediator.shape != shape:
            raise ValueError("mediator distribution shape does not match the signal sets")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "signals", labels)
        object.__setattr__(self, "mediator", mediator)

    @property
    def signal_shape(self) -> tuple[int, ...]:
        return tuple(len(sig) for sig in self.signals)

    def signal_marginal(self, i: int) -> np.ndarray:
        return marginal(self.mediator, i)


@dataclass(frozen=True, eq=False)
class RandomizedStrategyProfile:
    """Per player, a row-stochastic matrix from signals to mixed actions."""

    maps: tuple[np.ndarray, ...]

    def __init__(self, maps):
        mats = []
        for k, m in enumerate(maps):
            a = np.asarray(m, dtype=float).copy()
            if a.ndim != 2:
                raise ValueError(f"strategy map {k} must be 2-d (signals x actions)")
            # written so that NaN fails the test
            if not ((a >= -1e-12).all() and (np.abs(a.sum(axis=1) - 1.0) <= 1e-9).all()):
                raise ValueError(f"strategy map {k} rows must be distributions")
            np.clip(a, 0.0, None, out=a)
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "maps", tuple(mats))

    def is_pure(self) -> bool:
        return all(np.all(np.max(m, axis=1) == 1.0) for m in self.maps)

    def pure_action(self, i: int, b_i: int) -> int:
        row = self.maps[i][b_i]
        a = int(np.argmax(row))
        if row[a] != 1.0:
            raise ValueError(f"strategy of player {i} at signal {b_i} is not pure")
        return a


def identity_mediated_game(game: Game, psi: JointDistribution) -> MediatedGame:
    """Signals are the players' own actions; the mediator recommends play."""
    if psi.shape != game.shape:
        raise ValueError("mediator distribution shape does not match the game")
    return MediatedGame(game, game.actions, psi)


def obedient_profile(mg: MediatedGame) -> RandomizedStrategyProfile:
    """Point-mass strategies playing the recommended action (identity signals)."""
    if mg.signal_shape != mg.base.shape:
        raise ValueError("obedience needs signal sets equal to action sets")
    return RandomizedStrategyProfile(tuple(np.eye(s) for s in mg.base.shape))


def _contract_signals(
    psi: np.ndarray, maps: list[np.ndarray]
) -> np.ndarray:
    """Contract a signal-profile tensor against per-axis signal->action maps."""
    out = psi
    for axis, m in enumerate(maps):
        out = np.tensordot(out, m, axes=([axis], [0]))
        # tensordot moves the contracted axis to the end; rotate it back
        out = np.moveaxis(out, -1, axis)
    return out


def induced_action_distribution(
    mg: MediatedGame, sigma: RandomizedStrategyProfile
) -> JointDistribution:
    """Pushforward of the mediator distribution through the strategy profile."""
    if len(sigma.maps) != mg.base.n:
        raise ValueError("strategy profile size does not match the game")
    for i, m in enumerate(sigma.maps):
        if m.shape != (len(mg.signals[i]), mg.base.num_actions(i)):
            raise ValueError(f"strategy map {i} has the wrong shape")
    joint = _contract_signals(mg.mediator.weights, list(sigma.maps))
    return JointDistribution(joint)


def signal_assessment(
    mg: MediatedGame, sigma: RandomizedStrategyProfile, i: int, b_i: int
) -> OpponentDistribution:
    """Opponent-action distribution player i infers from receiving ``b_i``."""
    psi_i = mg.signal_marginal(i)
    if psi_i[b_i] <= 0.0:
        raise UnsupportedSignalError(i, b_i)
    cond = np.take(mg.mediator.weights, b_i, axis=i) / psi_i[b_i]
    other_maps = [m for j, m in enumerate(sigma.maps) if j != i]
    mix = _contract_signals(cond, other_maps)
    return OpponentDistribution(i, mix)


def verify_mediated_nash(
    mg: MediatedGame, sigma: RandomizedStrategyProfile, tol: float = DEFAULT_TOL
) -> Certificate:
    """Are all supported actions best reactions to their signal assessments?"""
    cases = (
        (i, signal_assessment(mg, sigma, i, b_i), np.flatnonzero(sigma.maps[i][b_i] > 0.0),
         {"signal": b_i})
        for i in range(mg.base.n)
        for b_i, p in enumerate(mg.signal_marginal(i))
        if p > 0.0
    )
    return _deviation_certificate(mg.base, cases, "mediated-nash", tol, clamp=True)


def reduce_convex_witness(
    points: np.ndarray, theta: np.ndarray, max_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink a convex combination to at most ``max_points`` support points.

    Repeatedly finds an affine dependence among the supported points and
    shifts weight along it until one coefficient hits zero, preserving the
    mixture exactly up to floating point.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(theta, dtype=float).copy()
    keep = th > 1e-14
    pts, th = pts[keep], th[keep]
    while th.size > max_points:
        # affine dependence: rows of [points^T; 1] have a null vector
        m = np.vstack([pts.T, np.ones(th.size)])
        _, s, vt = np.linalg.svd(m)
        null = vt[-1]
        if s.size == vt.shape[0] and s[-1] > 1e-9:
            break  # numerically independent; cannot reduce further
        pos = null > 1e-14
        if not np.any(pos):
            null = -null
            pos = null > 1e-14
        step = np.min(th[pos] / null[pos])
        th = th - step * null
        keep = th > 1e-12
        pts, th = pts[keep], np.maximum(th[keep], 0.0)
        th = th / th.sum()
    return pts, th


def construct_mediator(
    game: Game,
    mu: JointDistribution,
    witnesses: dict[tuple[int, int], list[tuple[float, np.ndarray]]],
) -> tuple[MediatedGame, RandomizedStrategyProfile]:
    """Build an explicit mediator realizing ``mu`` from hull witnesses.

    ``witnesses[(i, a_i)]`` lists (weight, region point) pairs whose convex
    combination equals the conditional of ``mu`` given a_i, for every
    supported action of every player; each point is a probability vector
    on the conditional's support, within ``WITNESS_MIX_TOL``.  Signals are
    action-index pairs; the returned strategy profile is the obedient pure
    one.  The construction is verified post hoc: the pushforward
    reproduces ``mu``, signal marginals factor as marginal times witness
    weight, and ``verify_mediated_nash`` certifies the obedient profile,
    i.e. every signal assessment lies in its acceptance region.
    """
    if mu.shape != game.shape:
        raise ValueError("distribution shape does not match the game")
    n = game.n
    margs = [marginal(mu, i) for i in range(n)]
    n_idx = [game.num_opponent_profiles(i) for i in range(n)]

    thetas: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    zetas: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    for i, a_i, target in _conditionals(mu, range(n)):
        if (i, a_i) not in witnesses:
            raise InvalidWitnessError(f"missing witness for player {i} action {a_i}")
        pairs = witnesses[(i, a_i)]
        th = np.array([w for w, _ in pairs], dtype=float)
        zs = np.array([np.asarray(z, dtype=float).ravel() for _, z in pairs])
        # the tests below are written so that NaN fails them
        if not ((th >= -1e-12).all() and abs(th.sum() - 1.0) <= 1e-9):
            raise InvalidWitnessError(
                f"weights for player {i} action {a_i} are not a distribution"
            )
        c = target.flat()
        for k, z in enumerate(zs):
            if not np.isfinite(z).all():
                raise InvalidWitnessError(
                    f"witness point {k} for player {i} action {a_i} has a non-finite entry"
                )
            if not (z >= -WITNESS_MIX_TOL).all():
                raise InvalidWitnessError(
                    f"witness point {k} for player {i} action {a_i} has a negative entry"
                )
            if not z[c == 0.0].sum() <= WITNESS_MIX_TOL:
                raise InvalidWitnessError(
                    f"witness point {k} for player {i} action {a_i} puts mass off "
                    "the support of the conditional"
                )
        th = np.clip(th, 0.0, None)
        th = th / th.sum()
        if th.size > n_idx[i]:
            zs, th = reduce_convex_witness(zs, th, n_idx[i])
        if th.size > n_idx[i]:
            raise InvalidWitnessError(
                f"witness for player {i} action {a_i} needs more than "
                f"{n_idx[i]} points after reduction"
            )
        if not np.max(np.abs(zs.T @ th - c)) <= WITNESS_MIX_TOL:
            raise InvalidWitnessError(
                f"witness mixture for player {i} action {a_i} misses the conditional"
            )
        # pad with zero-weight copies so every player has n_idx[i] indices
        if th.size < n_idx[i]:
            pad = n_idx[i] - th.size
            th = np.concatenate([th, np.zeros(pad)])
            zs = np.vstack([zs, np.repeat(zs[-1:], pad, axis=0)])
        thetas[i][a_i] = th
        zetas[i][a_i] = zs

    signal_labels = tuple(
        tuple(f"{a}#{m}" for a in game.actions[i] for m in range(1, n_idx[i] + 1))
        for i in range(n)
    )
    psi = np.zeros(tuple(game.num_actions(i) * n_idx[i] for i in range(n)))
    support = np.argwhere(mu.weights > 0.0)
    opp_index = support @ np.column_stack([opponent_strides(game.shape, i) for i in range(n)])
    for a, opp in zip(map(tuple, support.tolist()), opp_index.tolist()):
        p_a = mu.weights[a]
        # the witness-index block of profile a, multiplied in player order
        block = p_a
        for i in range(n):
            block = np.multiply.outer(block, thetas[i][a[i]] * zetas[i][a[i]][:, opp[i]])
        denom = math.prod(p_a / margs[i][a[i]] for i in range(n))
        psi[tuple(slice(a[i] * n_idx[i], (a[i] + 1) * n_idx[i]) for i in range(n))] = block / denom

    mg = MediatedGame(game, signal_labels, JointDistribution(psi))
    sigma = RandomizedStrategyProfile(
        tuple(np.repeat(np.eye(game.num_actions(i)), n_idx[i], axis=0) for i in range(n))
    )
    _check_construction(mu, mg, sigma, thetas, margs, n_idx)
    return mg, sigma


def _check_construction(mu, mg, sigma, thetas, margs, n_idx) -> None:
    """Post-hoc guarantees of the reverse construction."""
    eta = induced_action_distribution(mg, sigma)
    if np.max(np.abs(eta.weights - mu.weights)) > 1e-9:
        raise InvalidWitnessError("pushforward of the constructed mediator misses mu")
    for i in range(mg.base.n):
        rows = mg.signal_marginal(i).reshape(-1, n_idx[i])
        for a_i in np.flatnonzero(margs[i] > 0.0):
            if np.max(np.abs(rows[a_i] - margs[i][a_i] * thetas[i][a_i])) > 1e-9:
                raise InvalidWitnessError(
                    f"signal marginal of player {i} misses its witness weight"
                )
    cert = verify_mediated_nash(mg, sigma)
    if not cert.member:
        i, a_i = cert.witness["player"], cert.witness["action"]
        raise InvalidWitnessError(
            f"witness point {cert.witness['signal'] % n_idx[i]} for player {i} "
            f"action {a_i} is outside the acceptance region"
        )
