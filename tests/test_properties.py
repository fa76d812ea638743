"""Property-based invariants of the CPT evaluator and the checkers."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cpt_games.cpt import (
    CptPreferences,
    Lottery,
    cpt_value,
    cpt_values,
    decision_weights,
    eut_preferences,
    identity_value,
    identity_weighting,
    piecewise_power_value,
    prelec_weighting,
    tabulated_weighting,
)
from cpt_games.equilibrium import check_correlated_eq, check_mediated_eq, hull_membership
from cpt_games.harness import random_distribution, random_game


outcomes_st = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def lotteries(draw, max_entries=7):
    k = draw(st.integers(min_value=1, max_value=max_entries))
    raw = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    p = np.array(raw) / sum(raw)
    z = np.array(draw(st.lists(outcomes_st, min_size=k, max_size=k)))
    return Lottery(p, z)


@st.composite
def preferences(draw):
    ref = draw(st.floats(min_value=-5, max_value=5))
    if draw(st.booleans()):
        value = identity_value(ref)
    else:
        value = piecewise_power_value(
            ref,
            draw(st.floats(min_value=0.3, max_value=1.0)),
            draw(st.floats(min_value=0.3, max_value=1.0)),
            draw(st.floats(min_value=1.0, max_value=3.0)),
        )
    gammas = st.floats(min_value=0.3, max_value=2.0)
    return CptPreferences(
        value, prelec_weighting(draw(gammas)), prelec_weighting(draw(gammas))
    )


@given(lotteries(), preferences(), st.randoms(use_true_random=False))
def test_permutation_invariance(lot, prefs, rnd):
    order = list(range(len(lot)))
    rnd.shuffle(order)
    shuffled = Lottery(lot.probs[order], lot.outcomes[order])
    assert cpt_value(shuffled, prefs) == pytest.approx(cpt_value(lot, prefs), abs=1e-12)


@given(lotteries(), preferences())
@example(  # halving the subnormal 5e-324 gives 0.0, so this case is skipped
    Lottery(np.array([5e-324, 1.0]), np.array([1.0, 0.0])),
    CptPreferences(identity_value(0.0), prelec_weighting(0.375), prelec_weighting(1.0)),
)
def test_merge_invariance(lot, prefs):
    # splitting an entry into two equal halves with the same outcome (the
    # reverse of merging duplicates) must not move the value; only entries
    # whose halves add back exactly can be split
    split = lot.probs[0] / 2.0
    assume(split + split == lot.probs[0])
    doubled = Lottery(
        np.concatenate([[split, split], lot.probs[1:]]),
        np.concatenate([[lot.outcomes[0], lot.outcomes[0]], lot.outcomes[1:]]),
    )
    assert cpt_value(doubled, prefs) == pytest.approx(cpt_value(lot, prefs), abs=1e-9)


@given(lotteries(), preferences())
def test_zero_probability_invariance(lot, prefs):
    padded = Lottery(
        np.concatenate([lot.probs, [0.0]]), np.concatenate([lot.outcomes, [17.5]])
    )
    assert cpt_value(padded, prefs) == pytest.approx(cpt_value(lot, prefs), abs=1e-12)


@given(lotteries(), preferences(), st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.01, max_value=10.0))
def test_outcome_monotonicity(lot, prefs, idx, bump):
    idx = idx % len(lot)
    raised = lot.outcomes.copy()
    raised[idx] += bump
    assert cpt_value(Lottery(lot.probs, raised), prefs) >= cpt_value(lot, prefs) - 1e-12


@given(lotteries())
def test_eut_reduction(lot):
    expected = float(lot.probs @ lot.outcomes)
    assert cpt_value(lot, eut_preferences()) == pytest.approx(expected, abs=1e-12)


@given(lotteries())
def test_identity_weights_are_sorted_probabilities(lot):
    pi, _ = decision_weights(lot, eut_preferences())
    # best to worst, ties in their original order
    order = np.argsort(-lot.outcomes, kind="stable")
    assert np.array_equal(pi, lot.probs[order])


@st.composite
def weightings(draw):
    kind = draw(st.sampled_from(["identity", "prelec", "tabulated"]))
    if kind == "identity":
        return identity_weighting()
    if kind == "prelec":
        return prelec_weighting(draw(st.floats(min_value=0.3, max_value=2.0)))
    n = draw(st.integers(min_value=1, max_value=4))
    knots = st.sets(st.integers(min_value=1, max_value=99), min_size=n, max_size=n)
    ps, ws = sorted(draw(knots)), sorted(draw(knots))
    inner = [(p / 100.0, w / 100.0) for p, w in zip(ps, ws)]
    return tabulated_weighting([(0.0, 0.0)] + inner + [(1.0, 1.0)])


@st.composite
def lottery_batches(draw, max_entries=7):
    """(probs, outcomes, prefs): rows of integer weights over shared outcomes.

    Outcomes come from a small set half the time, so ties and outcomes at
    the reference are common; zero weights give zero-probability columns.
    Rows with all mass on gains and all mass on losses are always added.
    Integer weights over a common denominator are what simplex grids hold.
    """
    d = draw(st.integers(min_value=1, max_value=max_entries))
    small = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    z = np.array(draw(st.lists(small | outcomes_st, min_size=d, max_size=d)))
    ref = draw(st.sampled_from([0.0, 0.5]) | st.floats(min_value=-5, max_value=5))
    if draw(st.booleans()):
        value = identity_value(ref)
    else:
        value = piecewise_power_value(
            ref,
            draw(st.floats(min_value=0.3, max_value=1.0)),
            draw(st.floats(min_value=0.3, max_value=1.0)),
            draw(st.floats(min_value=1.0, max_value=3.0)),
        )
    prefs = CptPreferences(value, draw(weightings()), draw(weightings()))
    counts = st.lists(st.integers(min_value=0, max_value=9), min_size=d, max_size=d)
    rows = [np.array(c) for c in draw(st.lists(counts.filter(any), min_size=1, max_size=5))]
    gain = z >= ref
    for side in (gain, ~gain):
        if side.any():
            rows.append(np.where(side, rows[0] + 1, 0))
    probs = np.array([r / r.sum() for r in rows], dtype=float)
    return probs, z, prefs


@given(lottery_batches())
@settings(deadline=None)
def test_batched_values_match_scalar(batch):
    probs, z, prefs = batch
    values = cpt_values(probs, z, prefs)
    assert values.shape == (probs.shape[0],)
    for row, v in zip(probs, values):
        assert abs(v - cpt_value(Lottery(row, z), prefs)) <= 1e-12


@given(lottery_batches(), st.randoms(use_true_random=False),
       st.lists(outcomes_st, max_size=3))
@settings(deadline=None)
def test_batched_values_permutation_and_padding_invariance(batch, rnd, pad):
    probs, z, prefs = batch
    order = list(range(z.size))
    rnd.shuffle(order)
    shuffled = cpt_values(probs[:, order], z[order], prefs)
    padded = cpt_values(
        np.hstack((probs, np.zeros((probs.shape[0], len(pad))))),
        np.concatenate((z, pad)),
        prefs,
    )
    base = cpt_values(probs, z, prefs)
    assert np.abs(shuffled - base).max() <= 1e-12
    assert np.abs(padded - base).max() <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_hull_witness_validity(seed):
    rng = np.random.default_rng(seed)
    pts = rng.dirichlet(np.ones(4), size=rng.integers(1, 6))
    target = rng.dirichlet(np.ones(4))
    cert = hull_membership(target, pts, tol=1e-6)
    theta = np.array(cert.witness["theta"])
    used = np.array(cert.witness["points"])
    assert np.all(theta >= 0.0)
    assert theta.sum() == pytest.approx(1.0, abs=1e-9)
    if cert.member:
        assert np.abs(used.T @ theta - target).max() <= 1e-6 + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_eut_collapse_mediated_equals_correlated(seed):
    # with identity preferences the acceptance regions are polytopes and the
    # two membership notions coincide
    rng = np.random.default_rng(seed)
    g = random_game(rng, (2, 2), eut=True)
    for _ in range(10):
        mu = random_distribution(rng, (2, 2))
        c = check_correlated_eq(g, mu, tol=1e-6)
        d = check_mediated_eq(g, mu, resolution=24, tol=1e-6)
        assert c.member == d.member
