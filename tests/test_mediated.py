"""Mediated games: pushforwards, signal assessments, mediator construction."""

import numpy as np
import pytest

from cpt_games.games import JointDistribution, ProductDistribution, product_join
from cpt_games.equilibrium import check_correlated_eq
from cpt_games.mediated import (
    InvalidWitnessError,
    MediatedGame,
    RandomizedStrategyProfile,
    UnsupportedSignalError,
    construct_mediator,
    identity_mediated_game,
    induced_action_distribution,
    obedient_profile,
    reduce_convex_witness,
    signal_assessment,
    verify_mediated_nash,
)
from cpt_games.scripted import EVEN_MIX, ODD_MIX


def star_witnesses(mu_star):
    w = {(0, 0): [(0.5, ODD_MIX), (0.5, EVEN_MIX)]}
    for c in range(4):
        w[(1, c)] = [(1.0, np.array([1.0, 0.0]))]
    return w


def test_massless_mediator_rejected(game):
    # an all-zero mediator is a valid JointDistribution but sends no signal
    with pytest.raises(ValueError, match="no mass"):
        MediatedGame(game, game.actions, JointDistribution.zeros(game.shape))


class TestPushforward:
    def test_identity_obedience_reproduces_mediator(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        eta = induced_action_distribution(mg, obedient_profile(mg))
        assert np.abs(eta.weights - mu_o.weights).max() < 1e-15

    def test_signal_blind_players_give_product(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = RandomizedStrategyProfile(
            (
                np.tile([0.3, 0.7], (2, 1)),
                np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)),
            )
        )
        eta = induced_action_distribution(mg, sigma)
        expected = product_join(ProductDistribution([[0.3, 0.7], [0.1, 0.2, 0.3, 0.4]]))
        assert np.abs(eta.weights - expected.weights).max() < 1e-12

    def test_constructed_mediator_reproduces_target(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        eta = induced_action_distribution(mg, sigma)
        assert np.abs(eta.weights - mu_star.weights).max() < 1e-9


class TestSignalAssessment:
    def test_identity_mediator_gives_conditional(self, game, mu_o, mu_odd):
        mg = identity_mediated_game(game, mu_o)
        pi = signal_assessment(mg, obedient_profile(mg), 0, 0)
        assert np.allclose(pi.flat(), mu_odd)

    def test_signal_blind_opponents_make_it_constant(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = RandomizedStrategyProfile(
            (np.eye(2), np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)))
        )
        pi = signal_assessment(mg, sigma, 0, 0)
        assert np.allclose(pi.flat(), [0.1, 0.2, 0.3, 0.4])

    def test_constructed_mediator_recovers_witness_points(self, game, mu_star, mu_odd, mu_even):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        # row player's signals: (action 0, witness index m)
        assert np.allclose(signal_assessment(mg, sigma, 0, 0).flat(), mu_odd, atol=1e-12)
        assert np.allclose(signal_assessment(mg, sigma, 0, 1).flat(), mu_even, atol=1e-12)

    def test_unsupported_signal_errors(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        with pytest.raises(UnsupportedSignalError):
            signal_assessment(mg, obedient_profile(mg), 0, 1)


class TestVerifyMediatedNash:
    def test_identity_obedient_member_iff_correlated(self, game, mu_o, mu_star):
        mg_o = identity_mediated_game(game, mu_o)
        assert verify_mediated_nash(mg_o, obedient_profile(mg_o)).member
        mg_s = identity_mediated_game(game, mu_star)
        cert = verify_mediated_nash(mg_s, obedient_profile(mg_s))
        assert not cert.member
        assert cert.witness["player"] == 0

    def test_constant_nash_mix_is_member_for_any_mediator(self, game, mu_o, mu_star):
        # bottom row against uniform columns is a CPT Nash profile
        sigma = RandomizedStrategyProfile(
            (np.tile([0.0, 1.0], (2, 1)), np.tile([0.25] * 4, (4, 1)))
        )
        for psi in (mu_o, mu_star):
            mg = identity_mediated_game(game, psi)
            assert verify_mediated_nash(mg, sigma).member

    def test_constructed_mediator_is_mediated_nash(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        assert verify_mediated_nash(mg, sigma).member


class TestConstructMediator:
    def test_trivial_witnesses_reproduce_correlated_member(self, game, mu_o, mu_odd):
        # each supported conditional is its own single witness point
        witnesses = {
            (0, 0): [(1.0, mu_odd)],
            (1, 0): [(1.0, np.array([1.0, 0.0]))],
            (1, 2): [(1.0, np.array([1.0, 0.0]))],
        }
        mg, sigma = construct_mediator(game, mu_o, witnesses)
        eta = induced_action_distribution(mg, sigma)
        assert np.abs(eta.weights - mu_o.weights).max() < 1e-12
        assert verify_mediated_nash(mg, sigma).member

    def test_signal_marginals_factor_into_witness_weights(self, game, mu_star):
        mg, sigma = construct_mediator(game, mu_star, star_witnesses(mu_star))
        psi_row = mg.signal_marginal(0)
        # row marginal 1.0 on action 0, split half/half over the two witnesses
        assert psi_row[0] == pytest.approx(0.5, abs=1e-12)
        assert psi_row[1] == pytest.approx(0.5, abs=1e-12)

    def test_inconsistent_witnesses_rejected(self, game, mu_star, mu_odd):
        bad = star_witnesses(mu_star)
        bad[(0, 0)] = [(0.9, ODD_MIX), (0.1, EVEN_MIX)]  # mixes to the wrong point
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_star, bad)

    def test_missing_witness_rejected(self, game, mu_star):
        bad = star_witnesses(mu_star)
        del bad[(1, 2)]
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_star, bad)

    def test_off_region_witness_rejected(self, game, mu_o, mu_odd, mu_unif):
        # the uniform mix is not in the top row's acceptance region, so a
        # "witness" placing mass on it must fail the post-hoc check
        witnesses = {
            (0, 0): [(1.0, mu_odd)],
            (1, 0): [(1.0, np.array([1.0, 0.0]))],
            (1, 2): [(1.0, np.array([1.0, 0.0]))],
        }
        mu_bad = JointDistribution(np.array([[0.25, 0.25, 0.25, 0.25], [0, 0, 0, 0.0]]))
        witnesses[(0, 0)] = [(1.0, mu_unif)]
        witnesses[(1, 1)] = [(1.0, np.array([1.0, 0.0]))]
        witnesses[(1, 3)] = [(1.0, np.array([1.0, 0.0]))]
        with pytest.raises(InvalidWitnessError):
            construct_mediator(game, mu_bad, witnesses)


class TestReduceConvexWitness:
    def test_reduces_redundant_combination(self):
        rng = np.random.default_rng(2)
        pts = rng.dirichlet(np.ones(3), size=6)
        theta = rng.dirichlet(np.ones(6))
        target = pts.T @ theta
        red_pts, red_theta = reduce_convex_witness(pts, theta, 4)
        assert red_theta.size <= 4
        assert np.abs(red_pts.T @ red_theta - target).max() < 1e-9
        assert red_theta.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(red_theta >= 0.0)

    def test_keeps_small_combinations(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        theta = np.array([0.25, 0.75])
        red_pts, red_theta = reduce_convex_witness(pts, theta, 2)
        assert np.allclose(red_theta, theta)


class TestObedienceEquivalence:
    def test_matches_correlated_check_on_random_distributions(self, game):
        rng = np.random.default_rng(77)
        from cpt_games.harness import random_distribution

        for _ in range(100):
            psi = random_distribution(rng, (2, 4))
            mg = identity_mediated_game(game, psi)
            med = verify_mediated_nash(mg, obedient_profile(mg))
            corr = check_correlated_eq(game, psi)
            assert med.member == corr.member

    def test_matches_correlated_check_on_random_games(self):
        rng = np.random.default_rng(123)
        from cpt_games.harness import random_distribution, random_game

        for _ in range(4):
            g = random_game(rng, (2, 3))
            for _ in range(50):
                psi = random_distribution(rng, (2, 3))
                mg = identity_mediated_game(g, psi)
                med = verify_mediated_nash(mg, obedient_profile(mg))
                corr = check_correlated_eq(g, psi)
                assert med.member == corr.member
                if not med.member:
                    assert med.margin == pytest.approx(corr.margin, abs=1e-12)
