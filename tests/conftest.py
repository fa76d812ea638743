import os

# One BLAS/OpenMP thread, set before numpy is first imported: the
# forecaster's small solves gain nothing from a second thread, which spins
# against any other load and can push a timed acceptance criterion past its
# limit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from cpt_games.games import JointDistribution, OpponentDistribution
from cpt_games.scripted import (
    EVEN_MIX,
    ODD_MIX,
    UNIFORM_MIX,
    counterexample_game,
    cycle_average_distribution,
    even_cycle_distribution,
    odd_cycle_distribution,
)


@pytest.fixture(scope="session")
def game():
    return counterexample_game()


@pytest.fixture(scope="session")
def beta(game):
    return float(game.payoffs[0, 0, 0] / 2.0)


@pytest.fixture
def mu_odd():
    return ODD_MIX.copy()


@pytest.fixture
def mu_even():
    return EVEN_MIX.copy()


@pytest.fixture
def mu_unif():
    return UNIFORM_MIX.copy()


@pytest.fixture
def mu_o():
    return JointDistribution(odd_cycle_distribution())


@pytest.fixture
def mu_e():
    return JointDistribution(even_cycle_distribution())


@pytest.fixture
def mu_star():
    return JointDistribution(cycle_average_distribution())


def opp(player, weights):
    return OpponentDistribution(player, np.asarray(weights, dtype=float))


def pure_nash_profiles(game):
    """Independent oracle: pure profiles where each action maximizes its
    player's own payoff column.  Against a point mass, CPT ranks actions by
    raw payoff (the value function is increasing), so these are exactly the
    pure equilibria."""
    out = []
    for profile in np.ndindex(*game.shape):
        ok = True
        for i in range(game.n):
            payoffs = game.payoffs[i]
            idx = list(profile)
            column = [
                payoffs[tuple(idx[:i] + [a] + idx[i + 1 :])]
                for a in range(game.num_actions(i))
            ]
            if payoffs[profile] < max(column):
                ok = False
                break
        if ok:
            out.append(profile)
    return out
