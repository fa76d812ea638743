"""Correlated, Nash, mediated-Nash and mediated membership against frozen loops.

The references below are frozen copies of the per-check scans the library
used before the three region checks shared one deviation scan: each wrote
its own worst-margin loop and violation witness.  They call the same
primitives (``action_values``, ``conditional``, ``signal_assessment``,
``_hull_check_one``), so any difference comes from the scans themselves.
Certificates and hull distances are compared as sorted JSON strings, which
also tells 0.0 from -0.0 and an integer index from a NumPy one.
"""

import json

import numpy as np
import pytest

from cpt_games.equilibrium import (
    DEFAULT_HULL_TOL,
    DEFAULT_TOL,
    Certificate,
    _hull_check_one,
    action_values,
    check_correlated_eq,
    check_mediated_eq,
    check_nash,
    default_grid_resolution,
    mediated_hull_distance,
)
from cpt_games.games import (
    Game,
    JointDistribution,
    ProductDistribution,
    conditional,
    marginal,
)
from cpt_games.harness import random_distribution, random_game
from cpt_games.mediated import (
    MediatedGame,
    RandomizedStrategyProfile,
    identity_mediated_game,
    obedient_profile,
    signal_assessment,
    verify_mediated_nash,
)

# ---------------------------------------------------------------------------
# frozen reference: one hand-written scan per check
# ---------------------------------------------------------------------------


def ref_correlated(game, mu, tol):
    worst = np.inf
    worst_tuple = None
    for i in range(game.n):
        m = marginal(mu, i)
        for a_i in range(game.num_actions(i)):
            if m[a_i] <= 0.0:
                continue
            pi = conditional(mu, i, a_i)
            values = action_values(game, i, pi)
            for dev in range(game.num_actions(i)):
                if dev == a_i:
                    continue
                margin = float(values[a_i] - values[dev])
                if margin < worst:
                    worst = margin
                    worst_tuple = (i, a_i, dev)
    if worst_tuple is None:
        return Certificate(True, np.inf, {"kind": "none"})
    member = worst >= -tol
    witness = {"kind": "none"}
    if not member:
        witness = {
            "kind": "violation",
            "player": worst_tuple[0],
            "action": worst_tuple[1],
            "deviation": worst_tuple[2],
        }
    return Certificate(member, worst, witness, {"check": "correlated", "tol": tol})


def ref_nash(game, mu, tol):
    worst = np.inf
    worst_tuple = None
    for i in range(game.n):
        pi = mu.opponent_mix(i)
        values = action_values(game, i, pi)
        top = values.max()
        for a_i in range(game.num_actions(i)):
            if mu.factors[i][a_i] <= 0.0:
                continue
            margin = float(values[a_i] - top)
            if margin < worst:
                worst = margin
                worst_tuple = (i, a_i, int(np.argmax(values)))
    member = worst >= -tol
    witness = {"kind": "none"}
    if not member and worst_tuple is not None:
        witness = {
            "kind": "violation",
            "player": worst_tuple[0],
            "action": worst_tuple[1],
            "deviation": worst_tuple[2],
        }
    return Certificate(member, worst, witness, {"check": "nash", "tol": tol})


def ref_mediated_nash(mg, sigma, tol):
    worst = np.inf
    worst_tuple = None
    for i in range(mg.base.n):
        psi_i = mg.signal_marginal(i)
        for b_i in range(len(mg.signals[i])):
            if psi_i[b_i] <= 0.0:
                continue
            pi = signal_assessment(mg, sigma, i, b_i)
            values = action_values(mg.base, i, pi)
            top = values.max()
            for a_i in range(mg.base.num_actions(i)):
                if sigma.maps[i][b_i, a_i] <= 0.0:
                    continue
                margin = float(values[a_i] - top)
                if margin < worst:
                    worst = margin
                    worst_tuple = (i, b_i, a_i, int(np.argmax(values)))
    if worst_tuple is None:
        return Certificate(True, np.inf, {"kind": "none"})
    member = worst >= -tol
    witness = {"kind": "none"}
    if not member:
        witness = {
            "kind": "violation",
            "player": worst_tuple[0],
            "signal": worst_tuple[1],
            "action": worst_tuple[2],
            "deviation": worst_tuple[3],
        }
    return Certificate(member, worst, witness, {"check": "mediated-nash", "tol": tol})


def ref_mediated(game, mu, resolution, tol, region_cache):
    worst = np.inf
    worst_key = None
    hulls = {}
    lp_points = 0
    for i in range(game.n):
        m = marginal(mu, i)
        res = resolution if resolution is not None else default_grid_resolution(game, i)
        for a_i in range(game.num_actions(i)):
            if m[a_i] <= 0.0:
                continue
            pi = conditional(mu, i, a_i)
            cert, used = _hull_check_one(game, i, a_i, pi, res, tol, region_cache)
            lp_points += used
            hulls[f"{i}:{a_i}"] = cert.witness
            if cert.margin < worst:
                worst = cert.margin
                worst_key = (i, a_i)
    if worst_key is None:
        return Certificate(True, np.inf, {"kind": "none"})
    member = worst >= -tol
    witness = {"kind": "mediated", "per_action": hulls}
    if not member:
        witness = {
            "kind": "violation",
            "player": worst_key[0],
            "action": worst_key[1],
            "deviation": None,
        }
    return Certificate(
        member,
        worst,
        witness,
        {
            "check": "mediated",
            "tol": tol,
            "resolution": resolution or "default",
            "lp_points": lp_points,
        },
    )


def ref_hull_distance(game, mu, resolution, tol, players, region_cache):
    worst = 0.0
    for i in players if players is not None else range(game.n):
        m = marginal(mu, i)
        res = resolution if resolution is not None else default_grid_resolution(game, i)
        for a_i in range(game.num_actions(i)):
            if m[a_i] <= 0.0:
                continue
            pi = conditional(mu, i, a_i)
            cert, _ = _hull_check_one(game, i, a_i, pi, res, tol, region_cache)
            worst = max(worst, -cert.margin)
    return worst


# ---------------------------------------------------------------------------
# seeded instances
# ---------------------------------------------------------------------------

SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 3), (3, 1)]
GAMES_PER_SHAPE = 15
RESOLUTION = 6


def dump(cert) -> str:
    return json.dumps(cert.to_dict(), sort_keys=True)


def point_mass(rng, shape) -> JointDistribution:
    return JointDistribution.point_mass(shape, [int(rng.integers(s)) for s in shape])


def product_mixes(rng, shape) -> list[ProductDistribution]:
    dirichlet = ProductDistribution([rng.dirichlet(np.ones(s)) for s in shape])
    pure = ProductDistribution([np.eye(s)[rng.integers(s)] for s in shape])
    # a full-support factor beside a pure one, so one player's zeros are skipped
    mixed = ProductDistribution(
        [rng.dirichlet(np.ones(s)) if j % 2 else np.eye(s)[0] for j, s in enumerate(shape)]
    )
    return [dirichlet, pure, mixed]


def random_map(rng, signals: int, actions: int) -> np.ndarray:
    """Row-stochastic map with some zero entries and no all-zero row."""
    m = rng.dirichlet(np.ones(actions), size=signals)
    m[rng.random(m.shape) < 0.4] = 0.0
    empty = m.sum(axis=1) == 0.0
    m[empty, rng.integers(actions, size=int(empty.sum()))] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def mediated_instances(rng, game, mu):
    """(mediated game, strategy profile) pairs: identity and abstract signals."""
    ident = identity_mediated_game(game, mu)
    maps = RandomizedStrategyProfile([random_map(rng, s, s) for s in game.shape])
    out = [(ident, obedient_profile(ident)), (ident, maps)]
    sig_shape = tuple(int(rng.integers(1, 4)) for _ in range(game.n))
    for mediator in (random_distribution(rng, sig_shape), point_mass(rng, sig_shape)):
        mg = MediatedGame(game, [range(s) for s in sig_shape], mediator)
        sigma = RandomizedStrategyProfile(
            [random_map(rng, s, k) for s, k in zip(sig_shape, game.shape)]
        )
        out.append((mg, sigma))
    return out


def instances(shape):
    rng = np.random.default_rng([len(shape), *shape])
    for _ in range(GAMES_PER_SHAPE):
        game = random_game(rng, shape)
        joints = [random_distribution(rng, shape), point_mass(rng, shape)]
        yield game, joints, product_mixes(rng, shape), rng


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
class TestFrozenScans:
    def test_region_checks_match(self, shape):
        for game, joints, products, rng in instances(shape):
            for tol in (DEFAULT_TOL, 0.05):
                for mu in joints:
                    assert dump(check_correlated_eq(game, mu, tol)) == dump(
                        ref_correlated(game, mu, tol)
                    )
                    for mg, sigma in mediated_instances(rng, game, mu):
                        assert dump(verify_mediated_nash(mg, sigma, tol)) == dump(
                            ref_mediated_nash(mg, sigma, tol)
                        )
                for pd in products:
                    assert dump(check_nash(game, pd, tol)) == dump(ref_nash(game, pd, tol))

    def test_hull_checks_match(self, shape):
        for game, joints, _, _ in instances(shape):
            lib_cache, ref_cache = {}, {}
            for tol in (DEFAULT_HULL_TOL, 0.05):
                for mu in joints:
                    lib = check_mediated_eq(game, mu, RESOLUTION, tol, lib_cache)
                    ref = ref_mediated(game, mu, RESOLUTION, tol, ref_cache)
                    assert dump(lib) == dump(ref)
                    for players in (None, [0]):
                        lib_d = mediated_hull_distance(game, mu, RESOLUTION, tol, players)
                        ref_d = ref_hull_distance(game, mu, RESOLUTION, tol, players, ref_cache)
                        assert json.dumps(lib_d) == json.dumps(ref_d)


# ---------------------------------------------------------------------------
# degenerate games: single-action players
# ---------------------------------------------------------------------------


def pure_play(game, profile):
    mu = JointDistribution.point_mass(game.shape, profile)
    pd = ProductDistribution([np.eye(s)[a] for s, a in zip(game.shape, profile)])
    mg = identity_mediated_game(game, mu)
    return mu, pd, mg, obedient_profile(mg)


class TestDegenerateGames:
    def test_one_by_one_game(self):
        game = Game([["x"], ["y"]], np.array([[[1.0]], [[-2.0]]]))
        mu, pd, mg, sigma = pure_play(game, (0, 0))
        corr = check_correlated_eq(game, mu)
        assert corr.member and corr.margin == 0.0
        assert corr.witness == {"kind": "none"}
        assert corr.meta == {"check": "correlated", "tol": DEFAULT_TOL}
        for cert in (check_nash(game, pd), verify_mediated_nash(mg, sigma)):
            assert cert.member and cert.margin == 0.0
            assert cert.witness == {"kind": "none"}

    @pytest.mark.parametrize("mover", [0, 1])
    def test_single_action_opponent(self, mover):
        # the mover has three actions paying 0, 1, 2 and plays action 0;
        # the other player has one action, so the mover faces a point mass
        shape = (3, 1) if mover == 0 else (1, 3)
        own = np.array([0.0, 1.0, 2.0]).reshape(shape)
        payoffs = np.stack([own, np.zeros(shape)] if mover == 0 else [np.zeros(shape), own])
        game = Game([[str(k) for k in range(s)] for s in shape], payoffs)
        mu, pd, mg, sigma = pure_play(game, (0, 0))
        certs = [check_correlated_eq(game, mu), check_nash(game, pd), verify_mediated_nash(mg, sigma)]
        for cert in certs:
            assert not cert.member and cert.margin == -2.0
            assert cert.witness["player"] == mover
            assert (cert.witness["action"], cert.witness["deviation"]) == (0, 2)
        assert certs[2].witness["signal"] == 0
        med = check_mediated_eq(game, mu, RESOLUTION)
        assert not med.member and med.margin == -np.inf
        assert med.witness == {"kind": "violation", "player": mover, "action": 0, "deviation": None}
