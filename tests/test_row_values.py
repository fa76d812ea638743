"""Single-point CPT valuation through one exact routine.

``row_values`` (several outcome rows against one probability vector) and
``cpt_value`` (one lottery) share one rank-dependent evaluation, and action
values, the exact region test, regret matrices and ``cpt_regret`` are built
on them.  The reference below is a frozen copy of the scalar evaluator
before that, one ``Lottery`` per action, with frozen copies of its
weighting and value arithmetic; values must match it bit for bit, and the
traces built on them must keep their pinned digests.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cpt_games.cpt import (
    PROB_SUM_TOL,
    CptPreferences,
    Lottery,
    cpt_regret,
    cpt_value,
    decision_weights,
    identity_value,
    identity_weighting,
    piecewise_power_value,
    prelec_weighting,
    row_values,
    tabulated_weighting,
)
from cpt_games.engine import ForecastingBestReaction, regret_matrix_from_counts, run_engine
from cpt_games.equilibrium import action_values, region_membership
from cpt_games.games import Game, OpponentDistribution, player_rows
from cpt_games.harness import random_game
from cpt_games.scripted import (
    block_adversary,
    counterexample_game,
    probe_strategy_family,
    scripted_cycle_run,
)

# ---------------------------------------------------------------------------
# frozen reference: the scalar evaluator, one Lottery per valuation
# ---------------------------------------------------------------------------


def ref_weight(w, p):
    """The weighting function's arithmetic: Prelec on the open interval by
    a mask, tabulated by ``np.interp``."""
    arr = np.asarray(p, dtype=float)
    if w.kind == "identity":
        return arr.copy()
    if w.kind == "prelec":
        out = np.zeros_like(arr)
        inner = (arr > 0.0) & (arr < 1.0)
        out[inner] = np.exp(-((-np.log(arr[inner])) ** w.gamma))
        out[arr == 1.0] = 1.0
        return out
    return np.interp(arr, [q for q, _ in w.grid], [x for _, x in w.grid])


def ref_value(v, z):
    """The value function's arithmetic: a piecewise ``np.where``."""
    d = np.asarray(z, dtype=float) - v.reference
    if v.kind == "identity":
        return d
    return np.where(d >= 0.0, np.abs(d) ** v.alpha, -v.loss_aversion * np.abs(d) ** v.beta)


def ref_block_cumulative(p, z, total):
    cum = np.cumsum(p)
    start = 0.0
    i = 0
    t = p.size
    while i < t:
        j = i + 1
        while j < t and z[j] == z[i]:
            j += 1
        end = math.fsum(p[:j])
        if j - i > 1:
            cum[i : j - 1] = start + np.cumsum(p[i : j - 1])
        cum[j - 1] = end
        start = end
        i = j
    return np.clip(cum / total, 0.0, 1.0)


def ref_decision_weights(lottery, prefs):
    order = np.argsort(-lottery.outcomes, kind="stable")
    p = lottery.probs[order]
    z = lottery.outcomes[order]
    split = int(np.count_nonzero(z >= prefs.reference))
    t = p.size
    total = math.fsum(p)
    pi = np.empty(t, dtype=float)
    if split > 0:
        if prefs.weight_gain.kind == "identity":
            pi[:split] = p[:split]
        else:
            cum = ref_block_cumulative(p[:split], z[:split], total)
            w = ref_weight(prefs.weight_gain, cum)
            pi[:split] = np.diff(np.concatenate(([0.0], w)))
    if split < t:
        if prefs.weight_loss.kind == "identity":
            pi[split:] = p[split:]
        else:
            tail = ref_block_cumulative(p[split:][::-1], z[split:][::-1], total)[::-1]
            w = ref_weight(prefs.weight_loss, tail)
            pi[split:] = w - np.concatenate((w[1:], [0.0]))
    np.clip(pi, 0.0, None, out=pi)
    return pi, split


def ref_cpt_value(lottery, prefs):
    order = np.argsort(-lottery.outcomes, kind="stable")
    pi, _ = ref_decision_weights(lottery, prefs)
    return float(np.dot(pi, ref_value(prefs.value, lottery.outcomes[order])))


def ref_outcomes(game, i, a):
    return np.take(game.payoffs[i], a, axis=i).ravel()


def ref_regret_matrix(game, i, counts, t):
    k = game.num_actions(i)
    out = np.zeros((k, k))
    row_counts = counts.sum(axis=tuple(j for j in range(game.n) if j != i))
    for a in range(k):
        if row_counts[a] == 0:
            continue
        cond = np.take(counts, a, axis=i).ravel() / float(row_counts[a])
        v = np.array([ref_cpt_value(Lottery(cond, ref_outcomes(game, i, d)), game.prefs[i])
                      for d in range(k)])
        out[a] = (row_counts[a] / float(t)) * (v - v[a])
    return out


# ---------------------------------------------------------------------------
# seeded games and opponent mixes
# ---------------------------------------------------------------------------

TABULATED = tabulated_weighting([(0.0, 0.0), (0.2, 0.3), (0.5, 0.45), (0.9, 0.8), (1.0, 1.0)])
PREFS = (
    CptPreferences(identity_value(0.0), identity_weighting(), identity_weighting()),
    CptPreferences(piecewise_power_value(0.0, 0.8, 0.7, 2.0),
                   prelec_weighting(0.5), prelec_weighting(0.7)),
    CptPreferences(identity_value(0.5), TABULATED, prelec_weighting(0.4)),
    CptPreferences(piecewise_power_value(-0.5, 0.6, 0.9, 1.5),
                   identity_weighting(), TABULATED),
)
SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


def seeded_games():
    """Each shape with every preference bundle, payoffs tied or continuous."""
    for s, shape in enumerate(SHAPES):
        for tied in (True, False):
            rng = np.random.default_rng([s, tied])
            size = (len(shape),) + shape
            # half-integer payoffs tie often, also with the references 0, 0.5, -0.5
            payoffs = rng.integers(-2, 3, size) * 0.5 if tied else rng.uniform(-1, 1, size)
            prefs = [PREFS[(s + j) % len(PREFS)] for j in range(len(shape))]
            actions = [tuple(str(a) for a in range(k)) for k in shape]
            yield f"{shape}-{'tied' if tied else 'uniform'}", Game(actions, payoffs, prefs)


def opponent_mixes(rng, d):
    """Dirichlet mixes, some with zero entries, a point mass and the uniform mix."""
    mixes = [rng.dirichlet(np.ones(d)) for _ in range(3)]
    for _ in range(3):
        w = rng.dirichlet(np.ones(d))
        w[rng.choice(d, size=max(1, d // 2), replace=False)] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
        mixes.append(w / w.sum())
    mixes.append(np.eye(d)[rng.integers(d)])
    mixes.append(np.full(d, 1.0 / d))
    return mixes


GAMES = dict(seeded_games())


@pytest.mark.parametrize("name", GAMES)
def test_single_point_values_equal_the_frozen_scalar_evaluator(name):
    game = GAMES[name]
    rng = np.random.default_rng(list(name.encode()))
    for i in range(game.n):
        prefs = game.prefs[i]
        k = game.num_actions(i)
        for w in opponent_mixes(rng, game.num_opponent_profiles(i)):
            pi = OpponentDistribution(i, w.reshape(game.opponent_shape(i)))
            lotteries = [Lottery(pi.flat(), ref_outcomes(game, i, a)) for a in range(k)]
            expected = np.array([ref_cpt_value(lot, prefs) for lot in lotteries])
            assert np.array_equal(action_values(game, i, pi), expected)
            rows = player_rows(game.payoffs[i], i)
            assert np.array_equal(row_values(pi.flat(), rows, prefs), expected)
            for a, lot in enumerate(lotteries):
                assert cpt_value(lot, prefs) == expected[a]
                weights, split = decision_weights(lot, prefs)
                ref_weights, ref_split = ref_decision_weights(lot, prefs)
                assert np.array_equal(weights, ref_weights) and split == ref_split
                for dev in range(k):
                    regret = cpt_regret(pi.flat(), lot.outcomes, lotteries[dev].outcomes, prefs)
                    assert regret == expected[a] - expected[dev]
                    _, margin = region_membership(game, i, a, dev, pi)
                    assert margin == expected[a] - expected[dev]


@pytest.mark.parametrize("name", GAMES)
def test_regret_matrices_equal_the_frozen_scalar_evaluator(name):
    game = GAMES[name]
    rng = np.random.default_rng(list(name.encode()))
    for _ in range(4):
        counts = rng.integers(0, 4, size=game.shape) * (rng.random(game.shape) < 0.6)
        counts.flat[rng.integers(counts.size)] += 1
        t = int(counts.sum())
        for i in range(game.n):
            assert np.array_equal(
                regret_matrix_from_counts(game, i, counts, t), ref_regret_matrix(game, i, counts, t)
            )


# ---------------------------------------------------------------------------
# random lotteries
# ---------------------------------------------------------------------------


def random_weighting(rng):
    kind = rng.integers(3)
    if kind == 0:
        return identity_weighting()
    if kind == 1:
        # 0.5, 1.0 and 2.0 take NumPy's sqrt, copy and square shortcuts for pow
        return prelec_weighting(float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.3, 2.0)])))
    return TABULATED


def random_preferences(rng):
    reference = float(rng.choice([0.0, 0.5, -0.5]))
    if rng.random() < 0.5:
        value = identity_value(reference)
    else:
        value = piecewise_power_value(
            reference, float(rng.choice([0.5, 0.8, 1.0])), float(rng.choice([0.5, 0.7, 1.0])),
            float(rng.uniform(1.0, 3.0)),
        )
    return CptPreferences(value, random_weighting(rng), random_weighting(rng))


def random_lottery(rng, case):
    """Dirichlet, zero-entry, point-mass or uniform probabilities over d in
    1..8 outcomes, tied half-integer or continuous, every third row mostly
    losses."""
    d = int(rng.integers(1, 9))
    p = rng.dirichlet(np.ones(d))
    if case % 4 == 1:
        p[rng.choice(d, size=max(1, d // 2), replace=False)] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        p /= p.sum()
    elif case % 4 == 2:
        p = np.eye(d)[rng.integers(d)]
    elif case % 4 == 3:
        p = np.full(d, 1.0 / d)
    z = rng.integers(-2, 3, d) * 0.5 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, d)
    if case % 3 == 0:
        z = -np.abs(z) - 0.5
    return Lottery(p, z)


def test_random_lotteries_equal_the_frozen_scalar_evaluator():
    # the loss side evaluates its weights in best-to-worst order, the
    # reverse of its cumulative sums, which is where a strided array into
    # exp/log once changed values by an ulp
    rng = np.random.default_rng(20180405)
    for case in range(4000):
        prefs = random_preferences(rng)
        lot = random_lottery(rng, case)
        assert cpt_value(lot, prefs) == ref_cpt_value(lot, prefs)
        weights, split = decision_weights(lot, prefs)
        ref_weights, ref_split = ref_decision_weights(lot, prefs)
        assert np.array_equal(weights, ref_weights) and split == ref_split


def clip_path_probabilities(rng, case):
    """Probabilities over d in 1..8 outcomes that validation clips or whose
    mass is off one: an entry in [-PROB_SUM_TOL, 0), an entry in
    (1, 1 + PROB_SUM_TOL], or every entry scaled by 1 +- up to the tolerance."""
    d = int(rng.integers(1, 9))
    u = float(rng.uniform(0.0, 1.0)) or 1.0
    if case % 3 == 0 and d > 1:
        p = rng.dirichlet(np.ones(d))
        k = int(rng.integers(d))
        p[k] = 0.0
        p /= p.sum()
        p[k] = -u * PROB_SUM_TOL
    elif case % 3 == 1:
        p = np.zeros(d)
        specks = rng.random(d) < 0.3
        p[specks] = -rng.uniform(0.0, PROB_SUM_TOL, int(specks.sum()))
        p[rng.integers(d)] = 1.0 + u * PROB_SUM_TOL
    else:
        p = rng.dirichlet(np.ones(d)) * (1.0 + rng.choice([-0.9, 0.9]) * u * PROB_SUM_TOL)
    return p


def test_clipped_and_off_mass_probabilities_equal_the_frozen_scalar_evaluator():
    # the reference sees the clipped vector and sums its mass itself
    rng = np.random.default_rng(20180407)
    for case in range(3000):
        prefs = random_preferences(rng)
        raw = clip_path_probabilities(rng, case)
        d = raw.size
        rows = [
            rng.integers(-2, 3, d) * 0.5 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, d)
            for _ in range(int(rng.integers(1, 4)))
        ]
        clipped = np.clip(raw, 0.0, 1.0)
        expected = []
        for z in rows:
            lot = Lottery(raw, z)
            assert np.array_equal(lot.probs, clipped)
            ref = SimpleNamespace(probs=clipped, outcomes=z)
            expected.append(ref_cpt_value(ref, prefs))
            assert cpt_value(lot, prefs) == expected[-1]
            weights, split = decision_weights(lot, prefs)
            ref_weights, ref_split = ref_decision_weights(ref, prefs)
            assert np.array_equal(weights, ref_weights) and split == ref_split
        assert np.array_equal(row_values(raw, np.array(rows), prefs), np.array(expected))


@pytest.mark.parametrize(
    "w",
    [identity_weighting(), TABULATED]
    + [prelec_weighting(g) for g in (0.3, 0.5, 0.61, 0.7, 1.0, 1.7, 2.0)],
    ids=lambda w: w.kind if w.gamma is None else f"prelec-{w.gamma}",
)
def test_internal_weighting_equals_the_public_call(w):
    # the evaluation hands its boundaries, already in [0, 1], past the clamp
    rng = np.random.default_rng(20180408)
    for d in range(1, 41):
        for _ in range(20):
            q = rng.uniform(0.0, 1.0, d)
            q[rng.random(d) < 0.2] = 0.0
            q[rng.random(d) < 0.2] = 1.0
            if rng.random() < 0.5:
                q = np.sort(q)[::-1].copy()
            assert np.array_equal(w._weigh(q), w(q))
            assert np.array_equal(w._weigh(q), ref_weight(w, q))
    assert w._weigh(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
    assert w._weigh(np.array([1.0, 0.0])).tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "w",
    [identity_weighting(), prelec_weighting(0.5), prelec_weighting(0.7), prelec_weighting(2.0),
     TABULATED],
    ids=["identity", "prelec-0.5", "prelec-0.7", "prelec-2.0", "tabulated"],
)
def test_weights_of_strided_views_equal_their_contiguous_copies(w):
    # on this many entries, exp, log or pow on a negative-stride view round
    # some differently from the same values in a contiguous array
    rng = np.random.default_rng(20180406)
    inner = rng.uniform(0.0, 1.0, 4096)
    edges = inner.copy()
    edges[::7] = 0.0
    edges[::11] = 1.0
    for p in (inner, edges):
        square = p.reshape(64, 64)
        for view in (p[::-1], p[::3], p[::-5], square.T, square[:, ::-1], square[::2, 1::3]):
            assert np.array_equal(w(view), w(np.ascontiguousarray(view)))
            assert np.array_equal(w(view), ref_weight(w, np.ascontiguousarray(view)))


def test_player_rows_layout():
    tensor = np.arange(2 * 3 * 4).reshape(2, 3, 4)
    for i in range(3):
        rows = player_rows(tensor, i)
        assert rows.shape == (tensor.shape[i], 24 // tensor.shape[i])
        for a in range(tensor.shape[i]):
            assert np.array_equal(rows[a], np.take(tensor, a, axis=i).ravel())


def test_row_values_rejects_bad_input():
    prefs = PREFS[1]
    with pytest.raises(ValueError):
        row_values([0.5, 0.5], [[1.0, 2.0, 3.0]], prefs)  # row length
    with pytest.raises(ValueError):
        row_values([0.5, 0.5], [1.0, 2.0], prefs)  # not a matrix
    with pytest.raises(ValueError):
        row_values([0.5, 0.6], [[1.0, 2.0]], prefs)  # mass
    with pytest.raises(ValueError):
        row_values([0.5, 0.5], [[1.0, np.inf]], prefs)


# ---------------------------------------------------------------------------
# pinned traces
# ---------------------------------------------------------------------------


def trace_digest(trace):
    """sha256 of the little-endian int64 actions, then each player's assessment ids."""
    h = hashlib.sha256(np.asarray(trace.actions, dtype="<i8").tobytes())
    for ids in trace.assessment_ids:
        h.update(np.asarray(ids, dtype="<i8").tobytes())
    return h.hexdigest()


FORECASTER_DIGESTS = (
    "09ccf45312c3af58029c53789386f1634c1ec57fe4a528d25c14d1b3a2dab958",
    "dc2ff1faa052b47b3d57366fbf420ba80020657fcfdebeb79a1f2ae96fc51949",
    "33563f3705feae9cac3aaa81a708d69e3ef6ab2c227c1ea87b7eafa444ad91b1",
    "f71f6a9f75a427ca15ad43c8a6d1caea51a513d96a95985e2f85dba28f3c32fa",
    "2c8f4afb60276b54737532d0d12f2cf73346d557076ac82b2ffdc8ca62b20fd9",
    "c860c4a4de5a5b417ba3fa5a5d648f3d6f0c9862ea433eab9da628a158bee6f6",
    "69694d983a4a48fbc855fba38572eb42f9d97f16f5815b8f133355553d15d4db",
    "0a2c14d69a96a5a90e0b4b19fa2d82de55e9085825f09eed028a1e52679e45f7",
    "fe073f54c1c7698a410e2b36e451bff45509fbf9c4637c63be40aa5f34cdbb76",
    "091a264c86d1225f316771e669503c3ad68f0d3c1c4f930ef2109a6d35f37897",
    "f3cb1fb5cbf9ad9a60668fb1b18b6989eb2be0aa9aa9ed11a4bbd450a229be3d",
    "02c310bb608cd3a64f2be9a5080519be7308c8d8c7adffb0c9386fc3dbfc9db5",
)


@pytest.mark.parametrize("g", range(len(FORECASTER_DIGESTS)))
def test_forecaster_play_is_pinned(g):
    # forecaster-driven best reactions on random CPT games (game 3 is EUT),
    # 120 steps with checkpoints
    shape = SHAPES[g % len(SHAPES)]
    game = random_game(np.random.default_rng([180408005, g]), shape, eut=(g == 3))
    trace = run_engine(game, [ForecastingBestReaction(0.1) for _ in shape], 120, g)
    assert trace_digest(trace) == FORECASTER_DIGESTS[g]


@pytest.mark.parametrize(
    "variant,digest",
    [
        ("2p", "c3b4ce879b1f1992e92fb1636fb2635fbde8175b4bcf26e687b838fe4c5b16df"),
        ("3p", "4ae032441c2c8406804ba5c8c0597aa24de179b18fd094729a347e3c2233f73f"),
    ],
)
def test_scripted_runs_are_pinned(variant, digest):
    trace, _ = scripted_cycle_run(variant, 64, resolution=6, seed=5)
    assert trace_digest(trace) == digest


@pytest.mark.parametrize(
    "family, T_block, k, seed, digest",
    [
        ("always-top", 3, 3, 3, "93b2058072ec0c50e39c9f3206e1502ae6fd9f0152c77bdb5c55e4f10859ad6c"),
        ("always-bottom", 4, 2, 0, "352efb8c468da3632e92aebe3175191afc6fbe325143965b33ad6ba4e288c8ed"),
        ("always-top", 7, 3, 2, "3f3c2ebe7e6d31260dabc4fa7cf782215f48e7804ba505d862c43483a03f9a2a"),
        ("always-bottom", 5, 4, 1, "f65693d432d473ac971934ea22edd42382598cc69a4c4f54ca2708a870058564"),
    ],
)
def test_planned_tail_probe_runs_are_pinned(family, T_block, k, seed, digest):
    # the tail probe's runs against the block adversary, at 162, 128, 4802
    # and 6250 steps: the last two are longer than one PLAN_BLOCK_STEPS block
    horizon = 2 * T_block ** (k + 1)
    strategies = [probe_strategy_family(family)(), block_adversary(T_block)]
    trace = run_engine(counterexample_game(), strategies, horizon, seed, checkpoints=False)
    assert trace_digest(trace) == digest
