"""Invalid probability vectors raise the same ValueError in every constructor.

Lotteries validate on Python floats and distributions with one ``min`` and
one ``max``; the messages below are frozen, so a rewrite of either check
that lets an input through, or rejects it with another message, fails.
Python's ``min`` and ``max`` skip a NaN that is not first, and NumPy's
``min`` raises on an empty array, so both cases are listed.
"""

import numpy as np
import pytest

from cpt_games.cpt import PROB_SUM_TOL, Lottery, RegretTriples, eut_preferences, row_values
from cpt_games.games import JointDistribution, OpponentDistribution, ProductDistribution

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
    assert raised(lambda: RegretTriples(p, z, z)) == f"regret probabilities {lottery_message}"
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
    assert raised(lambda: RegretTriples(p, z, z)) == f"regret {message}"
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
    assert raised(lambda: RegretTriples(p, z, [0.0, 0.0])) == "outcomes must be finite"
    assert raised(lambda: RegretTriples(p, [0.0, 0.0], z)) == "outcomes must be finite"
    assert raised(lambda: row_values(p, [z], eut_preferences())) == (
        "outcome rows must be a finite (k, d) matrix over d probabilities"
    )


@pytest.mark.parametrize("z", [[1e308, 1e308], [-1e308, -1e308]])
def test_huge_finite_outcomes_are_accepted(z):
    lot = Lottery([0.5, 0.5], z)
    assert np.array_equal(lot.outcomes, z)
    RegretTriples([0.5, 0.5], z, z)


def test_distribution_zeros_are_positive():
    # negative zeros and entries within the tolerance below zero become 0.0
    w = JointDistribution(np.array([[-0.0, 0.25], [0.75, -0.0]])).weights
    assert not np.signbit(w).any()
    w = JointDistribution(np.array([-0.5 * TOL, 0.25, 0.75])).weights
    assert not np.signbit(w).any() and w[0] == 0.0
    w = OpponentDistribution(1, np.array([0.5, -0.0, 0.5])).weights
    assert not np.signbit(w).any()
