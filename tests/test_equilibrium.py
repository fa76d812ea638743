"""Equilibrium membership: regions, correlated, Nash, hulls, mediated."""

import math

import numpy as np
import pytest

from cpt_games.cpt import cpt_value
from cpt_games.equilibrium import (
    action_values,
    best_reaction,
    check_correlated_eq,
    check_mediated_eq,
    check_nash,
    hull_membership,
    mediated_hull_distance,
    region_membership,
    sample_region,
    simplex_grid,
)
from conftest import pure_nash_profiles
from cpt_games.harness import random_game
from cpt_games.scripted import counterexample_game
from cpt_games.games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    induced_lottery,
)


def enumerate_best(game, i, pi_weights):
    """Independent oracle: enumerate CPT values over all actions."""
    pi = OpponentDistribution(i, pi_weights)
    vals = [
        cpt_value(induced_lottery(game, i, pi, a), game.prefs[i])
        for a in range(game.num_actions(i))
    ]
    return vals





class TestBestReaction:
    def test_top_row_against_half_half_mixes(self, game, mu_odd, mu_even):
        assert best_reaction(game, 0, OpponentDistribution(0, mu_odd)) == 0
        assert best_reaction(game, 0, OpponentDistribution(0, mu_even)) == 0

    def test_bottom_row_against_uniform(self, game, mu_unif):
        assert best_reaction(game, 0, OpponentDistribution(0, mu_unif)) == 1

    def test_eut_point_mass(self):
        payoffs = np.array([[[3.0, 0.0], [1.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]])
        g = Game([("a", "b"), ("x", "y")], payoffs)
        assert best_reaction(g, 0, OpponentDistribution(0, [1.0, 0.0])) == 0
        assert best_reaction(g, 0, OpponentDistribution(0, [0.0, 1.0])) == 1

    def test_tie_breaks_low_index(self):
        payoffs = np.zeros((2, 3, 2))
        g = Game([("a", "b", "c"), ("x", "y")], payoffs)
        assert best_reaction(g, 0, OpponentDistribution(0, [0.5, 0.5])) == 0


class TestRegionMembership:
    def test_top_row_holds_against_odd(self, game, mu_odd):
        ok, margin = region_membership(game, 0, 0, 1, OpponentDistribution(0, mu_odd))
        assert ok and margin == pytest.approx(0.01, abs=2e-3)

    def test_top_row_fails_against_uniform(self, game, mu_unif):
        ok, margin = region_membership(game, 0, 0, 1, OpponentDistribution(0, mu_unif))
        assert not ok and margin == pytest.approx(-0.005, abs=2e-3)

    def test_self_deviation_zero_margin(self, game, mu_unif):
        ok, margin = region_membership(game, 0, 0, 0, OpponentDistribution(0, mu_unif))
        assert ok and margin == 0.0


class TestCorrelated:
    def test_cycle_supports_are_members(self, game, mu_o, mu_e):
        assert check_correlated_eq(game, mu_o).member
        assert check_correlated_eq(game, mu_e).member

    def test_cycle_average_is_not(self, game, mu_star):
        cert = check_correlated_eq(game, mu_star)
        assert not cert.member
        assert cert.witness == {
            "kind": "violation",
            "player": 0,
            "action": 0,
            "deviation": 1,
        }
        assert cert.margin == pytest.approx(-0.005, abs=3e-3)

    def test_pure_nash_point_mass_is_member(self):
        # dominant-strategy game: action 0 best for both
        payoffs = np.zeros((2, 2, 2))
        payoffs[0] = [[3.0, 3.0], [1.0, 1.0]]
        payoffs[1] = [[2.0, 0.0], [2.0, 0.0]]
        g = Game([("a", "b"), ("x", "y")], payoffs)
        mu = JointDistribution.point_mass((2, 2), (0, 0))
        assert check_correlated_eq(g, mu).member


class TestNash:
    def test_bottom_row_with_uniform_column(self, game):
        vals = enumerate_best(game, 0, np.full(4, 0.25))
        assert vals[1] > vals[0]  # oracle: bottom row beats top at uniform
        pd = ProductDistribution([[0.0, 1.0], [0.25] * 4])
        assert check_nash(game, pd).member

    def test_top_row_with_uniform_column_fails(self, game):
        pd = ProductDistribution([[1.0, 0.0], [0.25] * 4])
        cert = check_nash(game, pd)
        assert not cert.member
        assert cert.witness["player"] == 0

    def test_dominant_strategy_profile(self):
        payoffs = np.zeros((2, 2, 2))
        payoffs[0] = [[3.0, 3.0], [1.0, 1.0]]
        payoffs[1] = [[2.0, 0.0], [2.0, 0.0]]
        g = Game([("a", "b"), ("x", "y")], payoffs)
        assert check_nash(g, ProductDistribution([[1.0, 0.0], [1.0, 0.0]])).member

    def test_non_product_rejected(self, game, mu_star):
        with pytest.raises(TypeError):
            check_nash(game, mu_star)


class TestSimplexGrid:
    @pytest.mark.parametrize("dim,res", [(2, 5), (3, 4), (4, 8)])
    def test_count_and_normalization(self, dim, res):
        grid = simplex_grid(dim, res)
        assert grid.shape == (math.comb(res + dim - 1, dim - 1), dim)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert len({tuple(r) for r in np.round(grid * res).astype(int)}) == grid.shape[0]

    def test_deterministic_order(self):
        a = simplex_grid(3, 6)
        b = simplex_grid(3, 6)
        assert np.array_equal(a, b)


def regions_by_loop(game, i, resolution, tol=1e-9):
    """Reference: every action's region from one scalar evaluation per grid point."""
    grid = simplex_grid(game.num_opponent_profiles(i), resolution)
    shape = game.opponent_shape(i)
    slack = []
    for row in grid:
        values = action_values(game, i, OpponentDistribution(i, row.reshape(shape)))
        slack.append(values - values.max())
    slack = np.array(slack)
    return [grid[slack[:, a] >= -tol] for a in range(game.num_actions(i))]


def tied_random_game(seed, sizes):
    g = random_game(np.random.default_rng(seed), sizes)
    return Game(g.actions, np.round(g.payoffs * 2.0) / 2.0, g.prefs)


class TestSampleRegion:
    @pytest.mark.parametrize(
        "make, resolution",
        [
            (counterexample_game, 24),
            (lambda: tied_random_game(3, (2, 3)), 12),
            (lambda: tied_random_game(4, (3, 3)), 12),
            (lambda: tied_random_game(5, (3, 3)), 9),
            (lambda: random_game(np.random.default_rng(6), (3, 3), eut=True), 12),
            (lambda: random_game(np.random.default_rng(7), (2, 2, 2)), 6),
        ],
    )
    def test_equals_per_point_loop(self, make, resolution):
        game = make()
        for i in range(game.n):
            for a, expected in enumerate(regions_by_loop(game, i, resolution)):
                assert np.array_equal(sample_region(game, i, a, resolution), expected)

    def test_empty_region_shape(self):
        payoffs = np.zeros((2, 2, 3))
        payoffs[0, 0] = 1.0  # action 1 strictly dominated for player 0
        g = Game([("a", "b"), ("x", "y", "z")], payoffs)
        pts = sample_region(g, 0, 1, 4)
        assert pts.shape == (0, 3)

    def test_includes_half_half_mixes_at_res_2(self, game, mu_odd, mu_even):
        pts = sample_region(game, 0, 0, 2)
        keys = {tuple(p) for p in pts}
        assert tuple(mu_odd) in keys
        assert tuple(mu_even) in keys

    def test_excludes_uniform_at_res_4(self, game, mu_unif):
        pts = sample_region(game, 0, 0, 4)
        assert tuple(mu_unif) not in {tuple(p) for p in pts}

    def test_dominant_action_keeps_full_grid(self):
        payoffs = np.zeros((2, 2, 3))
        payoffs[0, 0] = 1.0  # action 0 strictly dominant for player 0
        g = Game([("a", "b"), ("x", "y", "z")], payoffs)
        pts = sample_region(g, 0, 0, 4)
        assert len(pts) == math.comb(4 + 2, 2)


class TestHullMembership:
    def test_midpoint(self, mu_odd, mu_even, mu_unif):
        cert = hull_membership(np.asarray(mu_unif), np.array([mu_odd, mu_even]))
        assert cert.member
        assert np.allclose(cert.witness["theta"], [0.5, 0.5], atol=1e-9)

    def test_single_point(self, mu_odd):
        cert = hull_membership(np.asarray(mu_odd), np.array([mu_odd]))
        assert cert.member
        assert cert.witness["theta"] == [1.0]

    def test_outside_point(self, mu_odd, mu_even):
        cert = hull_membership(
            np.array([1.0, 0.0, 0.0, 0.0]), np.array([mu_odd, mu_even])
        )
        assert not cert.member
        assert cert.margin == pytest.approx(-0.5, abs=1e-9)

    def test_empty_points(self, mu_unif):
        cert = hull_membership(np.asarray(mu_unif), np.empty((0, 4)))
        assert not cert.member
        assert cert.witness["theta"] == []


class TestMediated:
    def test_cycle_average_is_member(self, game, mu_star):
        cert = check_mediated_eq(game, mu_star, resolution=8)
        assert cert.member

    def test_odd_cycle_is_member(self, game, mu_o):
        assert check_mediated_eq(game, mu_o, resolution=8).member

    def test_point_mass_on_bottom_left_is_not(self, game):
        # oracle: the conditional is a point mass on column I, where the top
        # row wins by 2*beta - 1.99; a point-mass conditional's hull is itself
        pi = OpponentDistribution(0, [1.0, 0.0, 0.0, 0.0])
        vals = enumerate_best(game, 0, [1.0, 0.0, 0.0, 0.0])
        assert vals[0] > vals[1]
        mu = JointDistribution.point_mass((2, 4), (1, 0))
        cert = check_mediated_eq(game, mu, resolution=8)
        assert not cert.member
        assert cert.witness["player"] == 0

    def test_grid_doubling_preserves_membership(self, game, mu_star):
        for m in (2, 4, 8):
            assert check_mediated_eq(game, mu_star, resolution=m).member
            assert check_mediated_eq(game, mu_star, resolution=2 * m).member

    def test_hull_distance_zero_for_members(self, game, mu_star, mu_o):
        assert mediated_hull_distance(game, mu_star, resolution=8) == 0.0
        assert mediated_hull_distance(game, mu_o, resolution=8) == 0.0

    def test_correlated_members_stay_mediated_members(self):
        rng = np.random.default_rng(41)
        from cpt_games.harness import random_distribution, random_game

        seen = 0
        for _ in range(150):
            g = random_game(rng, (2, 2))
            candidates = [random_distribution(rng, (2, 2))]
            nash = pure_nash_profiles(g)
            candidates += [JointDistribution.point_mass((2, 2), p) for p in nash]
            for mu in candidates:
                if check_correlated_eq(g, mu, tol=1e-9).member:
                    seen += 1
                    assert check_mediated_eq(g, mu, resolution=8, tol=1e-9).member
        assert seen > 50
