"""Equilibrium membership: regions, correlated, Nash, hulls, mediated."""

import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from cpt_games import equilibrium
from cpt_games.cpt import cpt_value, cpt_values
from cpt_games.equilibrium import (
    DEFAULT_HULL_TOL,
    _extreme_candidates,
    action_values,
    best_reaction,
    check_correlated_eq,
    check_mediated_eq,
    check_nash,
    default_grid_resolution,
    hull_membership,
    mediated_hull_distance,
    region_membership,
    sample_region,
    simplex_grid,
)
from conftest import pure_nash_profiles
from cpt_games.harness import random_distribution, random_game
from cpt_games.simplex import hull_residual
from cpt_games.scripted import counterexample_game
from cpt_games.games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    conditional,
    induced_lottery,
    marginal,
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

    @pytest.mark.parametrize(
        "dim,res", [(1, 1), (1, 7), (2, 5), (3, 4), (3, 1), (4, 24), (8, 6)]
    )
    def test_equals_itertools_reference(self, dim, res):
        # compositions from cut positions, in itertools' lexicographic order
        rows = []
        for cut in itertools.combinations(range(res + dim - 1), dim - 1):
            edges = (-1,) + cut + (res + dim - 1,)
            rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
        expected = np.array(rows, dtype=float).reshape(-1, dim) / float(res)
        assert np.array_equal(simplex_grid(dim, res), expected)


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

    def test_grid_valued_once_per_player(self, monkeypatch):
        # three actions at two tolerances: one cpt_values call per outcome row
        game = random_game(np.random.default_rng(12), (3, 3))
        calls = []

        def counted(*args):
            calls.append(args)
            return cpt_values(*args)

        monkeypatch.setattr(equilibrium, "cpt_values", counted)
        for tol in (1e-9, 0.05):
            for a in range(3):
                sample_region(game, 0, a, 12, tol)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "make, resolution",
        [
            (lambda: tied_random_game(4, (3, 3)), 12),
            (lambda: random_game(np.random.default_rng(7), (2, 2, 2)), 6),
        ],
    )
    def test_warm_regions_equal_cold_ones(self, make, resolution):
        warm = make()
        for tol in (1e-9, 0.25):
            for i in range(warm.n):
                for a in range(warm.num_actions(i)):
                    cold = sample_region(make(), i, a, resolution, tol)
                    assert np.array_equal(sample_region(warm, i, a, resolution, tol), cold)
        assert set(equilibrium._GRID_VALUES[warm]) == {(i, resolution) for i in range(warm.n)}


def reduction_games():
    rng = np.random.default_rng(180408005)
    return [
        (counterexample_game(), 24),
        (random_game(rng, (2, 2, 2)), 24),
        (random_game(rng, (2, 2, 2)), 24),
        (tied_random_game(3, (2, 3)), 12),
        (tied_random_game(4, (3, 3)), 12),
        (tied_random_game(5, (3, 3)), 9),
    ]


@pytest.fixture(scope="module")
def reduced_regions():
    """(game, resolution, player, action, full region, reduced region) tuples."""
    out = []
    for game, res in reduction_games():
        for i in range(game.n):
            for a in range(game.num_actions(i)):
                full = sample_region(game, i, a, res)
                out.append((game, res, i, a, full, _extreme_candidates(full, res)))
    return out


def lattice_set(points, res):
    return {tuple(r) for r in np.rint(points * res).astype(int)}


class TestExtremeCandidates:
    def test_dropped_points_are_lattice_midpoints(self, reduced_regions):
        for _, res, _, _, full, red in reduced_regions:
            region = lattice_set(full, res)
            kept = np.rint(red * res).astype(int)
            # kept points are region points, in region order
            index = {tuple(r): n for n, r in enumerate(np.rint(full * res).astype(int))}
            order = [index[tuple(r)] for r in kept]
            assert order == sorted(order)
            d = full.shape[1]
            for c in region - lattice_set(red, res):
                found = False
                for j, k in itertools.combinations(range(d), 2):
                    up = list(c)
                    up[j] += 1
                    up[k] -= 1
                    down = list(c)
                    down[j] -= 1
                    down[k] += 1
                    if tuple(up) in region and tuple(down) in region:
                        found = True
                        break
                assert found, c

    def test_keeps_every_hull_vertex(self, reduced_regions):
        from scipy.spatial import ConvexHull

        checked = 0
        for _, res, _, _, full, red in reduced_regions:
            d = full.shape[1]
            if len(full) <= d or np.linalg.matrix_rank(full[1:] - full[0]) < d - 1:
                continue
            flat = full[:, : d - 1]
            if d == 2:
                vertices = [int(np.argmin(flat)), int(np.argmax(flat))]
            else:
                vertices = ConvexHull(flat).vertices
            assert lattice_set(full[vertices], res) <= lattice_set(red, res)
            checked += 1
        assert checked >= 20

    def test_residuals_match_full_region(self, reduced_regions):
        rng = np.random.default_rng(2018)
        for *_, full, red in reduced_regions:
            if len(full) == 0:
                continue
            for y in rng.dirichlet(np.ones(full.shape[1]), size=3):
                assert hull_residual(red, y)[0] == pytest.approx(
                    hull_residual(full, y)[0], abs=1e-9
                )

    def test_mediated_check_matches_unreduced_regions(self):
        rng = np.random.default_rng(7)
        tol = 1e-6
        lp_checks = 0
        for game, res in reduction_games():
            for _ in range(3):
                mu = random_distribution(rng, game.shape)
                worst, lp_points = np.inf, 0
                for i in range(game.n):
                    m = marginal(mu, i)
                    for a in range(game.num_actions(i)):
                        if m[a] <= 0.0:
                            continue
                        pi = conditional(mu, i, a)
                        values = action_values(game, i, pi)
                        if values[a] - values.max() >= -tol:
                            worst = min(worst, 0.0)
                            continue
                        full = sample_region(game, i, a, res, tol)
                        cert = hull_membership(pi, full, tol)
                        red = _extreme_candidates(full, res)
                        if len(full):
                            residual = hull_residual(red, pi.flat())[0]
                            assert residual == pytest.approx(-cert.margin, abs=1e-9)
                            lp_checks += 1
                        worst = min(worst, cert.margin)
                        lp_points += len(red)
                got = check_mediated_eq(game, mu, resolution=res, tol=tol)
                assert got.member == (worst >= -tol)
                assert got.margin == pytest.approx(worst, abs=1e-9)
                assert got.meta["lp_points"] == lp_points
        assert lp_checks >= 10

    def test_small_inputs_unchanged(self):
        for points, res in [
            (np.empty((0, 3)), 4),
            (np.array([[0.25, 0.25, 0.5]]), 4),
            (np.array([[0.5, 0.5], [0.25, 0.75]]), 4),
            (simplex_grid(1, 5), 5),
        ]:
            out = _extreme_candidates(points, res)
            assert out.shape == points.shape
            assert np.array_equal(out, points)

    @pytest.mark.parametrize("dim,res", [(2, 24), (4, 24), (8, 6), (41, 2)])
    def test_full_grid_keeps_only_vertices(self, dim, res):
        # (41, 2): mixed-radix keys exceed int64 and are Python integers
        out = _extreme_candidates(simplex_grid(dim, res), res)
        assert lattice_set(out, res) == {tuple(res * e) for e in np.eye(dim, dtype=int)}

    def test_witnesses_repeat(self, game, mu_star):
        first = check_mediated_eq(game, mu_star, resolution=24)
        cache: dict = {}
        again = [
            check_mediated_eq(game, mu_star, resolution=24, region_cache=cache)
            for _ in range(2)
        ]
        assert first.member
        for cert in again:
            assert cert.to_dict() == first.to_dict()
        region = lattice_set(sample_region(game, 0, 0, 24, 1e-6), 24)
        assert lattice_set(np.array(first.witness["per_action"]["0:0"]["points"]), 24) <= region


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

    def test_meta_counts_lp_points(self, game, mu_star, mu_o):
        cert = check_mediated_eq(game, mu_star, resolution=8)
        expected = 0
        for i in range(game.n):
            m = marginal(mu_star, i)
            for a in range(game.num_actions(i)):
                if m[a] <= 0.0:
                    continue
                values = action_values(game, i, conditional(mu_star, i, a))
                if values[a] - values.max() < -1e-6:
                    region = sample_region(game, i, a, 8, 1e-6)
                    expected += len(_extreme_candidates(region, 8))
        assert expected > 0
        assert cert.meta["lp_points"] == expected
        # every conditional of the odd cycle passes the exact region test
        assert check_mediated_eq(game, mu_o, resolution=8).meta["lp_points"] == 0

    def test_region_cache_shared_across_resolutions_and_tolerances(self, game):
        # one cache serving several grids keeps each grid's regions apart
        rng = np.random.default_rng(3)
        cache: dict = {}
        for _ in range(8):
            mu = random_distribution(rng, (2, 4))
            for res, tol in [(2, 1e-6), (24, 1e-6), (24, 1e-3), (2, 1e-3)]:
                shared = check_mediated_eq(game, mu, resolution=res, tol=tol, region_cache=cache)
                fresh = check_mediated_eq(game, mu, resolution=res, tol=tol, region_cache={})
                assert shared.to_dict() == fresh.to_dict()

    def test_region_cache_serves_several_games(self, game, mu_star):
        # regions are keyed by game: a cache warmed on one game must not certify
        # another game's conditional from the first game's regions (a member
        # verdict, margin -1.4e-17, where a fresh check says non-member); row
        # action 0 pays -10 in the second game
        cache: dict = {}
        assert check_mediated_eq(game, mu_star, region_cache=cache).member
        payoffs = np.array(game.payoffs)
        payoffs[0, 0] = -10.0
        other = Game(game.actions, payoffs, game.prefs)
        fresh = check_mediated_eq(other, mu_star, region_cache={})
        assert not fresh.member and fresh.margin == -np.inf
        shared = check_mediated_eq(other, mu_star, region_cache=cache)
        dumped = json.dumps(shared.to_dict(), sort_keys=True)
        assert dumped == json.dumps(fresh.to_dict(), sort_keys=True)
        assert mediated_hull_distance(other, mu_star) == np.inf
        # the game it served first still reads its own regions
        assert check_mediated_eq(game, mu_star, region_cache=cache).member

    def test_game_keeps_its_regions(self, monkeypatch, mu_star):
        # two default checks and a hull distance sample each needed region once
        game = counterexample_game()
        needed = []
        for i in range(game.n):
            m = marginal(mu_star, i)
            for a in np.flatnonzero(m > 0.0):
                values = action_values(game, i, conditional(mu_star, i, a))
                if values[a] - values.max() < -DEFAULT_HULL_TOL:
                    needed.append((i, int(a), default_grid_resolution(game, i), DEFAULT_HULL_TOL))
        assert needed
        calls = []

        def counted(g, *key):
            assert g is game
            calls.append(key)
            return sample_region(g, *key)

        monkeypatch.setattr(equilibrium, "sample_region", counted)
        first = check_mediated_eq(game, mu_star)
        assert first.member
        assert check_mediated_eq(game, mu_star).to_dict() == first.to_dict()
        assert mediated_hull_distance(game, mu_star) == max(0.0, -first.margin)
        assert sorted(calls) == sorted(needed)

    def test_regions_do_not_keep_their_game_alive(self, mu_star):
        game = counterexample_game()
        cert = check_mediated_eq(game, mu_star)
        assert cert.meta["lp_points"] > 0 and game in equilibrium._REGIONS
        assert game in equilibrium._GRID_VALUES
        ref = weakref.ref(game)
        del game
        gc.collect()
        assert ref() is None

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
