"""Game model: distributions, conditionals, induced lotteries, updates."""

import numpy as np
import pytest

from cpt_games.calibration import ForecastRecord
from cpt_games.cpt import Lottery, eut_preferences
from cpt_games.engine import FixedMixStrategy, run_engine
from cpt_games.games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    UnsupportedActionError,
    conditional,
    empirical_update,
    induced_lottery,
    marginal,
    opponent_strides,
    player_rows,
    product_join,
    profile_counts,
)
from cpt_games.harness import canonical_replay_instance
from cpt_games.mediated import identity_mediated_game, obedient_profile
from cpt_games.replay import construct_calibrated_replay
from cpt_games.scripted import UNIFORM_MIX, counterexample_game, cycle_average_distribution

LOG_SHAPES = [(1, 3), (2, 4), (2, 4, 4), (3, 2, 5), (2, 2, 2, 3)]


def every_profile(shape):
    """(prod(shape), n) array of every profile in row-major order."""
    return np.array(list(np.ndindex(*shape)), dtype=np.int64).reshape(-1, len(shape))


class TestGameValidation:
    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            Game([("a", "b")], np.zeros((1, 2)))

    def test_payoff_shape_checked(self):
        with pytest.raises(ValueError):
            Game([("a", "b"), ("x",)], np.zeros((2, 2, 2)))

    def test_nonfinite_rejected(self):
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Game([("a", "b"), ("x", "y")], p)

    def test_defaults_to_eut_preferences(self):
        g = Game([("a", "b"), ("x", "y")], np.zeros((2, 2, 2)))
        assert all(p == eut_preferences() for p in g.prefs)


class TestJointDistribution:
    @pytest.mark.parametrize("shape", [(2, 4), (2, 2, 3)])
    def test_all_zero_has_no_mass(self, shape):
        with pytest.raises(ValueError, match="^distribution has no mass$"):
            JointDistribution(np.zeros(shape))

    def test_tiny_mass_must_sum_to_1(self):
        # the sum is printed as a plain float, not as np.float64(...)
        with pytest.raises(ValueError, match=r"^distribution must sum to 1 \(got 8e-12\)$"):
            JointDistribution(np.full((2, 4), 1e-12))


class TestMarginal:
    def test_cycle_average_row_marginal(self, mu_star):
        assert np.allclose(marginal(mu_star, 0), [1.0, 0.0])

    def test_product_recovers_factor(self):
        pd = ProductDistribution([[0.3, 0.7], [0.25, 0.25, 0.5]])
        mu = product_join(pd)
        assert np.allclose(marginal(mu, 0), [0.3, 0.7], atol=1e-12)
        assert np.allclose(marginal(mu, 1), [0.25, 0.25, 0.5], atol=1e-12)

    def test_point_mass(self):
        mu = JointDistribution.point_mass((2, 4), (1, 2))
        assert np.allclose(marginal(mu, 0), [0.0, 1.0])
        assert np.allclose(marginal(mu, 1), [0, 0, 1, 0])


class TestConditional:
    def test_odd_cycle_given_top_row(self, mu_o, mu_odd):
        pi = conditional(mu_o, 0, 0)
        assert pi.player == 0
        assert np.allclose(pi.flat(), mu_odd)

    def test_cycle_average_given_top_row(self, mu_star, mu_unif):
        assert np.allclose(conditional(mu_star, 0, 0).flat(), mu_unif)

    def test_zero_marginal_errors(self, mu_o):
        with pytest.raises(UnsupportedActionError):
            conditional(mu_o, 0, 1)

    def test_remix_reconstructs_marginalized_joint(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = JointDistribution(rng.dirichlet(np.ones(8)).reshape(2, 4))
            m = marginal(mu, 0)
            remix = np.zeros((2, 4))
            for a in range(2):
                if m[a] > 0:
                    remix[a] = m[a] * conditional(mu, 0, a).flat()
            assert np.abs(remix - mu.weights).max() < 1e-12


class TestInducedLottery:
    def test_top_row_against_odd(self, game, beta, mu_odd):
        lot = induced_lottery(game, 0, OpponentDistribution(0, mu_odd), 0)
        assert np.allclose(lot.outcomes, [2 * beta, beta + 1, 0.0, 1.0])
        assert np.allclose(lot.probs, mu_odd)

    def test_point_mass_degenerate(self, game):
        pi = OpponentDistribution(0, [0.0, 0.0, 1.0, 0.0])
        lot = induced_lottery(game, 0, pi, 0)
        assert lot.outcomes[2] == 0.0 and lot.probs[2] == 1.0

    def test_bottom_row_constant(self, game, mu_unif):
        lot = induced_lottery(game, 0, OpponentDistribution(0, mu_unif), 1)
        assert np.all(lot.outcomes == 1.99)

    def test_player_mismatch_rejected(self, game, mu_unif):
        with pytest.raises(ValueError):
            induced_lottery(game, 1, OpponentDistribution(0, mu_unif), 0)


class TestEmpiricalUpdate:
    def test_first_step_point_mass(self):
        xi = empirical_update(JointDistribution.point_mass((2, 4), (0, 0)), (1, 3), 1)
        assert xi.weights[1, 3] == 1.0

    def test_first_step_ignores_the_seed(self):
        rng = np.random.default_rng(5)
        seeds = [
            JointDistribution(rng.dirichlet(np.ones(8)).reshape(2, 4)),
            JointDistribution(np.full((2, 4), 0.125)),
            JointDistribution.point_mass((2, 4), (1, 3)),
            JointDistribution.point_mass((2, 4), (0, 2)),
        ]
        want = JointDistribution.point_mass((2, 4), (1, 3)).weights
        for xi in seeds:
            assert np.array_equal(empirical_update(xi, (1, 3), 1).weights, want)

    def test_alternating_profiles(self):
        xi = JointDistribution(np.full((2, 2), 0.25))
        for t in range(1, 11):
            xi = empirical_update(xi, (0, 0) if t % 2 else (1, 1), t)
        assert xi.weights[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert xi.weights[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_cyclic_play_reaches_cycle_average(self, mu_star):
        xi = JointDistribution(np.full((2, 4), 0.125))
        for t in range(1, 41):
            xi = empirical_update(xi, (0, (t - 1) % 4), t)
        assert np.abs(xi.weights - mu_star.weights).max() < 1e-12

    def test_matches_direct_average_long_run(self):
        rng = np.random.default_rng(7)
        T = 10**6
        rows = rng.integers(0, 2, T)
        cols = rng.integers(0, 4, T)
        xi = JointDistribution(np.full((2, 4), 0.125))
        for t in range(1, T + 1):
            xi = empirical_update(xi, (rows[t - 1], cols[t - 1]), t)
        counts = np.zeros((2, 4))
        np.add.at(counts, (rows, cols), 1)
        assert np.abs(xi.weights - counts / T).max() < 1e-12


class TestProductJoin:
    def test_uniform_factors(self):
        pd = ProductDistribution([[0.5, 0.5], [0.25] * 4])
        assert np.allclose(product_join(pd).weights, np.full((2, 4), 0.125))

    def test_point_mass_factor_slices(self):
        pd = ProductDistribution([[0.0, 1.0], [0.3, 0.7]])
        mu = product_join(pd)
        assert np.allclose(mu.weights[0], 0.0)
        assert np.allclose(mu.weights[1], [0.3, 0.7])

    def test_two_player_arithmetic(self):
        pd = ProductDistribution([[0.3, 0.7], [0.4, 0.6]])
        assert np.allclose(
            product_join(pd).weights, [[0.12, 0.18], [0.28, 0.42]], atol=1e-15
        )

    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pd = ProductDistribution(
                [rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(4))]
            )
            mu = product_join(pd)
            for i, f in enumerate(pd.factors):
                assert np.abs(marginal(mu, i) - f).max() < 1e-12


class TestActionLogLayout:
    @pytest.mark.parametrize("shape", LOG_SHAPES)
    def test_opponent_strides_match_ravel_multi_index(self, shape):
        profiles = every_profile(shape)
        tensor = np.arange(profiles.shape[0], dtype=float).reshape(shape)
        for i in range(len(shape)):
            w = opponent_strides(shape, i)
            assert w.dtype == np.int64 and w[i] == 0
            cols = [j for j in range(len(shape)) if j != i]
            opp_shape = tuple(shape[j] for j in cols)
            expected = np.ravel_multi_index(tuple(profiles[:, cols].T), opp_shape)
            assert np.array_equal(profiles @ w, expected)
            # and it is the column of the profile in player i's rows
            rows = player_rows(tensor, i)
            assert np.array_equal(rows[profiles[:, i], profiles @ w], tensor.ravel())

    @pytest.mark.parametrize("shape", LOG_SHAPES)
    def test_profile_counts_match_add_at(self, shape):
        rng = np.random.default_rng(sum(shape))
        profiles = every_profile(shape)
        log = np.vstack([profiles, profiles[rng.integers(len(profiles), size=50)]])
        log = log[rng.permutation(len(log))]
        expected = np.zeros(shape, dtype=np.int64)
        np.add.at(expected, tuple(log.T), 1)
        counts = profile_counts(shape, log)
        assert counts.dtype == np.int64 and counts.shape == shape
        assert np.array_equal(counts, expected)
        assert np.array_equal(profile_counts(shape, log[:0]), np.zeros(shape, dtype=np.int64))


def _canonical_replay():
    _, _, mg, sigma, repair = canonical_replay_instance()
    return construct_calibrated_replay(mg, sigma, 64, repair_points=repair)


def _short_run():
    game = counterexample_game()
    return run_engine(game, [FixedMixStrategy([0.5, 0.5]), FixedMixStrategy(UNIFORM_MIX)], 16, 0)


def _mediated():
    mu = JointDistribution(cycle_average_distribution())
    return identity_mediated_game(counterexample_game(), mu)


# one call per type whose fields hold arrays; two calls give equal-valued, distinct objects
ARRAY_HOLDERS = {
    "Game": counterexample_game,
    "JointDistribution": lambda: JointDistribution(cycle_average_distribution()),
    "ProductDistribution": lambda: ProductDistribution([[0.5, 0.5], UNIFORM_MIX]),
    "OpponentDistribution": lambda: OpponentDistribution(0, UNIFORM_MIX),
    "Lottery": lambda: Lottery([0.5, 0.5], [1.0, 2.0]),
    "MediatedGame": _mediated,
    "RandomizedStrategyProfile": lambda: obedient_profile(_mediated()),
    "Checkpoint": lambda: _short_run().checkpoints[-1],
    "RunTrace": _short_run,
    "ReplayScripts": _canonical_replay,
    "ForecastRecord": lambda: ForecastRecord.from_steps(
        2, [np.array([0.5, 0.5]), np.array([1.0, 0.0])], np.array([0, 1, 1]), np.array([1, 0, 0])
    ),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and b not in [a]
    assert {a: 0, b: 1}[a] == 0 and len({a, b}) == 2


def test_preferences_compare_by_value():
    assert eut_preferences() == eut_preferences()
    assert hash(eut_preferences()) == hash(eut_preferences())
    assert counterexample_game().prefs == counterexample_game().prefs
