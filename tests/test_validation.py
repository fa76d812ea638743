"""Invalid probability vectors raise the same ValueError in every constructor.

Lotteries validate on Python floats and distributions with one ``min`` and
one ``max``; the messages below are frozen, so a rewrite of either check
that lets an input through, or rejects it with another message, fails.
Python's ``min`` and ``max`` skip a NaN that is not first, and NumPy's
``min`` raises on an empty array, so both cases are listed.  The table at
the end freezes the type and message of the other argument checks.
"""

import numpy as np
import pytest

from cpt_games.calibration import CalibratedForecaster, ForecastRecord, calibration_score
from cpt_games.cpt import (
    PROB_SUM_TOL,
    Lottery,
    ValueFunction,
    WeightingFunction,
    cpt_regret,
    eut_preferences,
    preferences_from_dict,
    row_values,
)
from cpt_games.engine import FixedMixStrategy, cpt_regret_matrix, max_calibration_score, run_engine
from cpt_games.equilibrium import (
    check_correlated_eq,
    check_mediated_eq,
    check_nash,
    mediated_hull_distance,
)
from cpt_games.games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    ProductDistribution,
    empirical_update,
    simplex_grid,
)
from cpt_games.mediated import (
    InvalidWitnessError,
    MediatedGame,
    RandomizedStrategyProfile,
    construct_mediator,
    identity_mediated_game,
    induced_action_distribution,
    obedient_profile,
)
from cpt_games.replay import construct_calibrated_replay
from cpt_games.scripted import (
    EVEN_MIX,
    ODD_MIX,
    UNIFORM_MIX,
    BlockSchedule,
    counterexample_game,
    cycle_average_distribution,
    odd_cycle_distribution,
    wilson_interval,
)
from cpt_games.simplex import hull_residual

NAN, INF = float("nan"), float("inf")
TOL = PROB_SUM_TOL

# name: (probabilities, lottery message after the label, distribution message)
CASES = {
    "nan-first": ([NAN, 0.5, 0.5], "must be finite", "distribution weights must be finite"),
    "nan-last": ([0.5, 0.5, NAN], "must be finite", "distribution weights must be finite"),
    "nan-between-out-of-range": (
        [2.0, NAN, -1.0], "must be finite", "distribution weights must be finite"
    ),
    "inf": ([INF, 0.0], "must be finite", "distribution weights must be finite"),
    "minus-inf": ([1.0, -INF], "must be finite", "distribution weights must be finite"),
    "inf-then-nan": ([0.5, INF, NAN], "must be finite", "distribution weights must be finite"),
    "huge": (
        [1e308, 1e308], "entries must lie in [0, 1]", "distribution must sum to 1 (got inf)"
    ),
    "below": (
        [-2 * TOL, 1.0 + 2 * TOL],
        "entries must lie in [0, 1]",
        "distribution weights must be nonnegative",
    ),
    "above": (
        [0.0, 1.0 + 2 * TOL],
        "entries must lie in [0, 1]",
        "distribution must sum to 1 (got 1.000000002)",
    ),
    "sum-high": (
        [0.5, 0.5 + 2 * TOL],
        "must sum to 1 (got 1.0000000020000002)",
        "distribution must sum to 1 (got 1.0000000020000002)",
    ),
    "sum-low": (
        [0.5, 0.5 - 2 * TOL],
        "must sum to 1 (got 0.9999999980000001)",
        "distribution must sum to 1 (got 0.9999999980000001)",
    ),
    "empty": ([], "must be a nonempty 1-d vector", "distribution has no mass"),
    "all-zero": ([0.0, 0.0], "must sum to 1 (got 0.0)", "distribution has no mass"),
}


def raised(fn) -> str:
    with pytest.raises(ValueError) as err:
        fn()
    assert type(err.value) is ValueError
    return str(err.value)


@pytest.mark.parametrize("name", CASES)
def test_invalid_probabilities_raise_the_frozen_message(name):
    p, lottery_message, distribution_message = CASES[name]
    z = np.zeros(len(p))
    prefs = eut_preferences()
    assert raised(lambda: Lottery(p, z)) == f"lottery probabilities {lottery_message}"
    assert raised(lambda: cpt_regret(p, z, z, prefs)) == f"lottery probabilities {lottery_message}"
    assert raised(lambda: row_values(p, z[None], prefs)) == (
        f"lottery probabilities {lottery_message}"
    )
    assert raised(lambda: JointDistribution(p)) == distribution_message
    assert raised(lambda: OpponentDistribution(0, p)) == distribution_message
    assert raised(lambda: ProductDistribution([p, [1.0]])) == distribution_message
    assert raised(lambda: ProductDistribution([[1.0], p])) == distribution_message


def test_two_dimensional_probabilities():
    p = [[0.5, 0.5]]
    z = np.zeros((1, 2))
    message = "probabilities must be a nonempty 1-d vector"
    assert raised(lambda: Lottery(p, z)) == f"lottery {message}"
    assert raised(lambda: cpt_regret(p, z, z, eut_preferences())) == f"lottery {message}"
    assert raised(lambda: row_values(p, z, eut_preferences())) == f"lottery {message}"
    # a joint or opponent distribution has one axis per player
    assert np.array_equal(JointDistribution(p).weights, p)
    assert np.array_equal(OpponentDistribution(0, p).weights, p)
    assert raised(lambda: ProductDistribution([[1.0], p])) == (
        "factor 1 must be a 1-d distribution"
    )


@pytest.mark.parametrize(
    "z", [[NAN, 1.0], [1.0, NAN], [INF, 1.0], [1.0, -INF]], ids=["nan", "nan-last", "inf", "-inf"]
)
def test_nonfinite_outcomes_are_rejected(z):
    p = [0.5, 0.5]
    assert raised(lambda: Lottery(p, z)) == "outcomes must be finite"
    prefs = eut_preferences()
    message = "outcome rows must be a finite (k, d) matrix over d probabilities"
    assert raised(lambda: row_values(p, [z], prefs)) == message
    assert raised(lambda: cpt_regret(p, z, [0.0, 0.0], prefs)) == message
    assert raised(lambda: cpt_regret(p, [0.0, 0.0], z, prefs)) == message


@pytest.mark.parametrize("z", [[1e308, 1e308], [-1e308, -1e308]])
def test_huge_finite_outcomes_are_accepted(z):
    lot = Lottery([0.5, 0.5], z)
    assert np.array_equal(lot.outcomes, z)
    assert cpt_regret([0.5, 0.5], z, z, eut_preferences()) == 0.0


def test_distribution_zeros_are_positive():
    # negative zeros and entries within the tolerance below zero become 0.0
    w = JointDistribution(np.array([[-0.0, 0.25], [0.75, -0.0]])).weights
    assert not np.signbit(w).any()
    w = JointDistribution(np.array([-0.5 * TOL, 0.25, 0.75])).weights
    assert not np.signbit(w).any() and w[0] == 0.0
    w = OpponentDistribution(1, np.array([0.5, -0.0, 0.5])).weights
    assert not np.signbit(w).any()


GAME = counterexample_game()
MU = JointDistribution(cycle_average_distribution())
MU_2X2 = JointDistribution(np.full((2, 2), 0.25))
MG = identity_mediated_game(GAME, MU)
COLUMNS = GAME.actions[1]


def _fixed_mixes():
    return [FixedMixStrategy([0.5, 0.5]), FixedMixStrategy(UNIFORM_MIX)]


def _short_run():
    return run_engine(GAME, _fixed_mixes(), 4, 0)


def _record(steps=0):
    rec = ForecastRecord(2)
    rec.intern(np.array([0.5, 0.5]))
    for _ in range(steps):
        rec.append(0, 1)
    return rec


def _prefs_doc(**parts):
    doc = {"reference": 0.0, "value": {"kind": "identity"},
           "weight_gain": {"kind": "identity"}, "weight_loss": {"kind": "identity"}}
    return {**doc, **parts}


# name: (call, exception type, message)
RAISES = {
    # cpt
    "tabulated-one-point": (
        lambda: WeightingFunction("tabulated", grid=((0.0, 0.0),)),
        ValueError, "tabulated weighting needs at least two grid points",
    ),
    "unknown-weighting-kind": (
        lambda: WeightingFunction("cubic"), ValueError, "unknown weighting kind 'cubic'"
    ),
    "unknown-value-kind": (
        lambda: ValueFunction(0.0, kind="cubic"), ValueError, "unknown value kind 'cubic'"
    ),
    "dict-unknown-weighting-kind": (
        lambda: preferences_from_dict(_prefs_doc(weight_loss={"kind": "cubic"})),
        ValueError, "unknown weighting kind 'cubic'",
    ),
    "dict-unknown-value-kind": (
        lambda: preferences_from_dict(_prefs_doc(value={"kind": "cubic"})),
        ValueError, "unknown value kind 'cubic'",
    ),
    "nan-reference": (
        lambda: ValueFunction(NAN), ValueError, "reference point must be finite"
    ),
    "nan-loss-aversion": (
        lambda: ValueFunction(0.0, "piecewise_power", 0.5, 0.5, NAN),
        ValueError, "loss_aversion must be finite and >= 1",
    ),
    "inf-loss-aversion": (
        lambda: ValueFunction(0.0, "piecewise_power", 0.5, 0.5, INF),
        ValueError, "loss_aversion must be finite and >= 1",
    ),
    "inf-reference": (
        lambda: ValueFunction(-INF, kind="piecewise_power"),
        ValueError, "reference point must be finite",
    ),
    "lottery-unequal-lengths": (
        lambda: Lottery([0.5, 0.5], [1.0]),
        ValueError, "probabilities and outcomes must have equal length",
    ),
    # games
    "player-without-actions": (
        lambda: Game([("a", "b"), ()], np.zeros((2, 2, 0))),
        ValueError, "every player needs at least one action",
    ),
    "preference-bundle-count": (
        lambda: Game([("a", "b"), ("x", "y")], np.zeros((2, 2, 2)), [eut_preferences()]),
        ValueError, "need one preference bundle per player",
    ),
    "one-factor-product": (
        lambda: ProductDistribution([[0.5, 0.5]]),
        ValueError, "a product distribution needs at least two factors",
    ),
    "simplex-grid-dim-0": (
        lambda: simplex_grid(0, 3), ValueError, "need dim >= 1 and resolution >= 1"
    ),
    "simplex-grid-resolution-0": (
        lambda: simplex_grid(2, 0), ValueError, "need dim >= 1 and resolution >= 1"
    ),
    "empirical-update-step-0": (
        lambda: empirical_update(MU, (0, 0), 0), ValueError, "step must be >= 1"
    ),
    # engine
    "strategy-count": (
        lambda: run_engine(GAME, [FixedMixStrategy([0.5, 0.5])], 4, 0),
        ValueError, "need one strategy per player",
    ),
    "engine-horizon-0": (
        lambda: run_engine(GAME, _fixed_mixes(), 0, 0),
        ValueError, "horizon must be >= 1",
    ),
    "regret-matrix-t-0": (
        lambda: cpt_regret_matrix(GAME, 0, _short_run(), 0),
        ValueError, "t must lie in [1, horizon]",
    ),
    "regret-matrix-t-past-horizon": (
        lambda: cpt_regret_matrix(GAME, 1, _short_run(), 5),
        ValueError, "t must lie in [1, horizon]",
    ),
    # equilibrium
    "correlated-shape": (
        lambda: check_correlated_eq(GAME, MU_2X2),
        ValueError, "distribution shape does not match the game",
    ),
    "nash-shape": (
        lambda: check_nash(GAME, ProductDistribution([[0.5, 0.5], [0.5, 0.5]])),
        ValueError, "distribution shape does not match the game",
    ),
    "mediated-shape": (
        lambda: check_mediated_eq(GAME, MU_2X2),
        ValueError, "distribution shape does not match the game",
    ),
    # every conditional of the odd cycle certifies itself, so no grid is built
    "mediated-resolution-0": (
        lambda: check_mediated_eq(GAME, JointDistribution(odd_cycle_distribution()), 0),
        ValueError, "grid resolution must be >= 1",
    ),
    "hull-distance-resolution-0": (
        lambda: mediated_hull_distance(GAME, JointDistribution(odd_cycle_distribution()), 0),
        ValueError, "grid resolution must be >= 1",
    ),
    # mediated
    "signal-set-count": (
        lambda: MediatedGame(GAME, [("0", "1")], MU),
        ValueError, "need one signal set per player",
    ),
    "mediator-shape": (
        lambda: MediatedGame(GAME, [("0", "1"), ("x", "y")], MU),
        ValueError, "mediator distribution shape does not match the signal sets",
    ),
    "strategy-map-1-d": (
        lambda: RandomizedStrategyProfile([[1.0, 0.0]]),
        ValueError, "strategy map 0 must be 2-d (signals x actions)",
    ),
    "strategy-map-rows": (
        lambda: RandomizedStrategyProfile([np.eye(2), [[0.5, 0.4]]]),
        ValueError, "strategy map 1 rows must be distributions",
    ),
    "strategy-map-nan": (
        lambda: RandomizedStrategyProfile([[[NAN, 1.0], [1.0, 0.0]], np.eye(2)]),
        ValueError, "strategy map 0 rows must be distributions",
    ),
    "pure-action-of-mixed-row": (
        lambda: RandomizedStrategyProfile([[[0.5, 0.5]], np.eye(4)]).pure_action(0, 0),
        ValueError, "strategy of player 0 at signal 0 is not pure",
    ),
    "identity-mediated-shape": (
        lambda: identity_mediated_game(GAME, MU_2X2),
        ValueError, "mediator distribution shape does not match the game",
    ),
    "obedience-signal-sets": (
        lambda: obedient_profile(
            MediatedGame(GAME, [("s",), COLUMNS], JointDistribution(UNIFORM_MIX[None]))
        ),
        ValueError, "obedience needs signal sets equal to action sets",
    ),
    "induced-profile-size": (
        lambda: induced_action_distribution(MG, RandomizedStrategyProfile([np.eye(2)])),
        ValueError, "strategy profile size does not match the game",
    ),
    "induced-map-shape": (
        lambda: induced_action_distribution(
            MG, RandomizedStrategyProfile([np.eye(2), np.eye(2)])
        ),
        ValueError, "strategy map 1 has the wrong shape",
    ),
    "construct-mediator-shape": (
        lambda: construct_mediator(GAME, MU_2X2, {}),
        ValueError, "distribution shape does not match the game",
    ),
    "construct-mediator-weights": (
        lambda: construct_mediator(GAME, MU, {(0, 0): [(0.7, ODD_MIX), (0.5, EVEN_MIX)]}),
        InvalidWitnessError, "weights for player 0 action 0 are not a distribution",
    ),
    "construct-mediator-nan-weight": (
        lambda: construct_mediator(GAME, MU, {(0, 0): [(NAN, ODD_MIX), (1.0, EVEN_MIX)]}),
        InvalidWitnessError, "weights for player 0 action 0 are not a distribution",
    ),
    "construct-mediator-nan-point": (
        lambda: construct_mediator(GAME, MU, {(0, 0): [(1.0, [NAN, 0.5, 0.5, 0.0])]}),
        InvalidWitnessError, "witness point 0 for player 0 action 0 has a non-finite entry",
    ),
    "construct-mediator-inf-point": (
        lambda: construct_mediator(GAME, MU, {(0, 0): [(1.0, [INF, 0.5, 0.5, 0.0])]}),
        InvalidWitnessError, "witness point 0 for player 0 action 0 has a non-finite entry",
    ),
    # calibration
    "record-append-id": (
        lambda: ForecastRecord(2).append(0, 0), ValueError, "forecast id not in the dictionary"
    ),
    "record-append-outcome": (
        lambda: _record().append(0, 2), ValueError, "outcome index out of range"
    ),
    "score-empty-record": (
        lambda: calibration_score(_record()), ValueError, "calibration score needs a nonempty record"
    ),
    "observe-before-predict": (
        lambda: CalibratedForecaster(2, 0.5).observe(0),
        RuntimeError, "observe called before predict",
    ),
    # replay, simplex, scripted
    "replay-horizon-0": (
        lambda: construct_calibrated_replay(MG, obedient_profile(MG), 0),
        ValueError, "horizon must be >= 1",
    ),
    "hull-target-dimension": (
        lambda: hull_residual(np.eye(2), np.array([1.0, 0.0, 0.0])),
        ValueError, "target dimension does not match the points",
    ),
    "block-schedule-step-0": (
        lambda: BlockSchedule(3).mix(np.array([0, 1])), ValueError, "steps start at 1"
    ),
}


@pytest.mark.parametrize("name", RAISES)
def test_invalid_arguments_raise_the_frozen_message(name):
    call, kind, message = RAISES[name]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message


def test_degenerate_inputs_return_their_documented_values():
    # a fixed-mix player logs no assessment, so it has no calibration score
    assert max_calibration_score(_short_run(), 0) == 0.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
