"""Calibrated replay: quota schedules, collisions, perturbation repair."""

from functools import partial

import numpy as np
import pytest

from cpt_games.calibration import ForecastRecord, calibration_score
from cpt_games.equilibrium import _region_margin
from cpt_games.games import Game, JointDistribution, OpponentDistribution
from cpt_games.harness import canonical_replay_instance
from cpt_games.mediated import (
    MediatedGame,
    RandomizedStrategyProfile,
    identity_mediated_game,
    induced_action_distribution,
    obedient_profile,
    signal_assessment,
)
from cpt_games.replay import (
    AssessmentCollisionError,
    _assessment_key,
    _quota_schedule,
    construct_calibrated_replay,
    repair_block_starts,
)
from cpt_games.scripted import counterexample_game, odd_cycle_distribution


def odd_cycle_repair():
    # the two supported column signals share a point-mass assessment but
    # prescribe different columns; perturb the second one
    return {(1, 2): [np.array([1 - 1e-3 / l, 1e-3 / l]) for l in range(1, 9)]}


class TestBlockStarts:
    def test_geometric_growth(self):
        assert repair_block_starts(1000)[:6] == [1, 3, 10, 41, 206, 1237]

    def test_covers_requested_range(self):
        starts = repair_block_starts(50)
        assert starts[-1] > 50


class TestReplay:
    def test_identity_mediator_needs_repair(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = obedient_profile(mg)
        with pytest.raises(AssessmentCollisionError) as err:
            construct_calibrated_replay(mg, sigma, 1000)
        assert err.value.player == 1

    def test_identity_mediator_with_repair(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = obedient_profile(mg)
        scripts = construct_calibrated_replay(mg, sigma, 1000, repair_points=odd_cycle_repair())
        rep = scripts.report
        assert max(rep["calibration_scores"]) <= 0.01
        assert rep["action_empirical_sup_distance"] <= 0.01
        assert rep["signal_empirical_sup_distance"] <= mg.mediator.flat().size / 1000

    def test_constructed_mediator_replay(self, mu_star):
        game, mu, mg, sigma, repair = canonical_replay_instance()
        scripts = construct_calibrated_replay(mg, sigma, 4000, repair_points=repair)
        rep = scripts.report
        assert max(rep["calibration_scores"]) <= 0.01
        counts = np.zeros((2, 4))
        np.add.at(counts, tuple(scripts.actions.T), 1)
        assert np.abs(counts / 4000 - mu_star.weights).max() <= 0.01

    def test_quota_schedule_tracks_mediator(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = obedient_profile(mg)
        for T in (17, 101, 1003):
            scripts = construct_calibrated_replay(
                mg, sigma, T, repair_points=odd_cycle_repair()
            )
            sig_counts = np.zeros(mg.signal_shape)
            np.add.at(sig_counts, tuple(scripts.signals.T), 1)
            bound = mg.mediator.flat().size / T
            assert np.abs(sig_counts / T - mg.mediator.weights).max() <= bound

    def test_mixed_strategy_rejected(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        maps = [np.eye(2), np.tile([0.25] * 4, (4, 1))]
        sigma = RandomizedStrategyProfile(tuple(maps))
        with pytest.raises(ValueError):
            construct_calibrated_replay(mg, sigma, 100)

    def test_duplicate_repair_point_rejected(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = obedient_profile(mg)
        repair = {(1, 2): [np.array([1.0, 0.0])]}  # equals the base assessment
        with pytest.raises(ValueError):
            construct_calibrated_replay(mg, sigma, 100, repair_points=repair)

    def test_off_region_repair_point_rejected(self):
        # hand-built collision for the row player, whose regions are strict:
        # two signals share the uniform-ish assessment but play different rows
        game = counterexample_game()
        signals = (("s0", "s1"), ("c0",))
        psi = JointDistribution(np.array([[0.5], [0.5]]))
        mg = MediatedGame(game, signals, psi)
        sigma = RandomizedStrategyProfile(
            (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0, 0.0, 0.0]]))
        )
        with pytest.raises(AssessmentCollisionError):
            construct_calibrated_replay(mg, sigma, 100)
        # the odd half-half mix is outside the bottom row's acceptance region
        bad = {(0, 1): [np.array([0.5, 0.0, 0.5, 0.0])]}
        with pytest.raises(ValueError):
            construct_calibrated_replay(mg, sigma, 100, repair_points=bad)

    def test_assessments_lengths_match_horizon(self, game, mu_o):
        mg = identity_mediated_game(game, mu_o)
        sigma = obedient_profile(mg)
        scripts = construct_calibrated_replay(mg, sigma, 64, repair_points=odd_cycle_repair())
        assert scripts.actions.shape == (64, 2)
        assert all(len(a) == 64 for a in scripts.assessments)


def reference_replay(mg, sigma, T, repair_points=None):
    """Frozen copy of the per-step replay: one occurrence count, one list of
    block starts and one interning per step.  Returns signals, actions,
    per-step assessments and the report."""
    game = mg.base
    n = game.n
    repair_points = repair_points or {}
    assess = [dict() for _ in range(n)]
    act = [dict() for _ in range(n)]
    for i in range(n):
        psi_i = mg.signal_marginal(i)
        for b in range(len(mg.signals[i])):
            if psi_i[b] <= 0.0:
                continue
            assess[i][b] = signal_assessment(mg, sigma, i, b).flat()
            act[i][b] = sigma.pure_action(i, b)
    repaired = [dict() for _ in range(n)]
    used_keys = set()
    for i in range(n):
        for b, vec in assess[i].items():
            used_keys.add(_assessment_key(vec))
    for i in range(n):
        groups = {}
        for b in sorted(assess[i]):
            groups.setdefault(_assessment_key(assess[i][b]), []).append(b)
        for key, members in groups.items():
            if len({act[i][b] for b in members}) <= 1:
                continue
            for b in members[1:]:
                pts = repair_points.get((i, b))
                if not pts:
                    raise AssessmentCollisionError(i, members[0], b)
                validated = []
                for p in pts:
                    vec = np.asarray(p, dtype=float).ravel()
                    pkey = _assessment_key(vec)
                    assert pkey not in used_keys
                    pi = OpponentDistribution(i, vec.reshape(game.opponent_shape(i)))
                    assert _region_margin(game, i, act[i][b], pi) >= -1e-9
                    used_keys.add(pkey)
                    validated.append(vec)
                repaired[i][b] = validated

    schedule_flat = _quota_schedule(mg.mediator, T)
    signal_shape = mg.signal_shape
    profiles = np.array(np.unravel_index(schedule_flat, signal_shape)).T
    actions = np.zeros((T, n), dtype=np.int64)
    assessments = [[] for _ in range(n)]
    occurrence = [dict() for _ in range(n)]
    for t in range(T):
        for i in range(n):
            b = int(profiles[t, i])
            actions[t, i] = act[i][b]
            k = occurrence[i].get(b, 0) + 1
            occurrence[i][b] = k
            if b in repaired[i]:
                starts = repair_block_starts(k)
                block = int(np.searchsorted(np.asarray(starts), k, side="right"))
                pts = repaired[i][b]
                assessments[i].append(pts[min(block, len(pts)) - 1])
            else:
                assessments[i].append(assess[i][b])

    eta = induced_action_distribution(mg, sigma)
    counts = np.zeros(game.shape, dtype=np.int64)
    np.add.at(counts, tuple(actions.T), 1)
    xi = counts / float(T)
    scores = []
    for i in range(n):
        opp_shape = game.opponent_shape(i)
        rec = ForecastRecord(int(np.prod(opp_shape)))
        opp_cols = [j for j in range(n) if j != i]
        flat = np.ravel_multi_index(tuple(actions[:, j] for j in opp_cols), opp_shape)
        for t in range(T):
            rec.append(rec.intern(assessments[i][t]), int(flat[t]))
        scores.append(float(calibration_score(rec).max()))
    sig_counts = np.zeros(signal_shape, dtype=np.int64)
    np.add.at(sig_counts, tuple(profiles.T), 1)
    report = {
        "horizon": T,
        "calibration_scores": scores,
        "action_empirical_sup_distance": float(np.abs(xi - eta.weights).max()),
        "signal_empirical_sup_distance": float(
            np.abs(sig_counts / float(T) - mg.mediator.weights).max()
        ),
        "collisions_repaired": sum(len(r) for r in repaired),
    }
    return profiles, actions, assessments, report


def shared_assessment_instance():
    """Row signals s0 and s1 have equal mediator rows and both play the top
    row, so they share one assessment and one action; s2 plays the bottom
    row.  The column conditionals are pairwise distinct."""
    game = counterexample_game()
    psi = np.array(
        [[0.1, 0.1, 0.05, 0.05], [0.1, 0.1, 0.05, 0.05], [0.04, 0.12, 0.08, 0.16]]
    )
    mg = MediatedGame(game, (("s0", "s1", "s2"), game.actions[1]), JointDistribution(psi))
    sigma = RandomizedStrategyProfile((np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.eye(4)))
    return mg, sigma, None


def canonical_instance():
    _, _, mg, sigma, repair = canonical_replay_instance()
    return mg, sigma, repair


def odd_cycle_instance():
    mg = identity_mediated_game(counterexample_game(), JointDistribution(odd_cycle_distribution()))
    return mg, obedient_profile(mg), odd_cycle_repair()


def random_collision_instance(seed):
    """An indifferent game (every repair point is in the region) under a
    random mediator with repeated slices, so that signals share assessments,
    and a random pure profile.  Draws are kept when some signals share an
    assessment and the signals sharing one play pairwise distinct actions;
    every signal but the lowest of such a group gets repair points."""
    rng = np.random.default_rng(seed)
    while True:
        sizes = tuple(int(k) for k in rng.integers(2, 4, size=rng.integers(2, 4)))
        n = len(sizes)
        game = Game([tuple(str(a) for a in range(k)) for k in sizes], np.zeros((n,) + sizes))
        counts = tuple(int(c) for c in rng.integers(1, 5, size=n))
        base = rng.dirichlet(np.ones(int(np.prod(counts)))).reshape(counts)
        base[rng.random(counts) < 0.2] = 0.0
        if not base.any():
            continue
        rows = [rng.integers(c, size=int(rng.integers(c, c + 3))) for c in counts]
        psi = base[np.ix_(*rows)]
        if not psi.any():
            continue
        signals = tuple(tuple(f"s{b}" for b in range(r.size)) for r in rows)
        mg = MediatedGame(game, signals, JointDistribution(psi / psi.sum()))
        sigma = RandomizedStrategyProfile(
            tuple(np.eye(k)[rng.integers(k, size=r.size)] for k, r in zip(sizes, rows))
        )
        repair, distinct = {}, True
        for i in range(n):
            groups = {}
            for b in np.flatnonzero(mg.signal_marginal(i) > 0.0).tolist():
                key = _assessment_key(signal_assessment(mg, sigma, i, b).flat())
                groups.setdefault(key, []).append(b)
            for members in groups.values():
                acts = [sigma.pure_action(i, b) for b in members]
                distinct &= len(set(acts)) == len(acts)
                for b in members[1:]:
                    d = game.num_opponent_profiles(i)
                    repair[(i, b)] = list(rng.dirichlet(np.ones(d), size=int(rng.integers(1, 5))))
        if distinct and repair:
            return mg, sigma, repair


REFERENCE_HORIZONS = (1, 2, 3, 17, 64, 101, 1003, 4000, 8000)
RANDOM_CASES = [(seed, int(T)) for seed, T in enumerate(np.random.default_rng(22).integers(1, 3001, size=24))]


@pytest.mark.parametrize(
    "make, T",
    [(canonical_instance, T) for T in REFERENCE_HORIZONS + (20000,)]
    + [(odd_cycle_instance, T) for T in REFERENCE_HORIZONS]
    + [(shared_assessment_instance, T) for T in (1, 17, 1003)]
    + [
        pytest.param(partial(random_collision_instance, seed), T, id=f"random-{seed}-{T}")
        for seed, T in RANDOM_CASES
    ],
)
def test_replay_matches_per_step_reference(make, T):
    mg, sigma, repair = make()
    scripts = construct_calibrated_replay(mg, sigma, T, repair_points=repair)
    signals, actions, assessments, report = reference_replay(mg, sigma, T, repair)
    assert np.array_equal(scripts.signals, signals)
    assert np.array_equal(scripts.actions, actions)
    for got, want in zip(scripts.assessments, assessments):
        assert len(got) == T
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert scripts.report == report


def test_shared_assessment_is_scored_as_one_forecast():
    # the two signals' steps are scored together; scoring them as two
    # forecasts would give another value, so the comparison above sees
    # how shown assessments are grouped
    mg, sigma, _ = shared_assessment_instance()
    T = 1003
    scripts = construct_calibrated_replay(mg, sigma, T)
    assert scripts.report["collisions_repaired"] == 0
    s0, s1 = (signal_assessment(mg, sigma, 0, b).flat() for b in (0, 1))
    assert s0.tobytes() == s1.tobytes()
    rec = ForecastRecord(4)
    for b in range(3):
        rec.dictionary.append(signal_assessment(mg, sigma, 0, b).flat())
    for b, col in zip(scripts.signals[:, 0].tolist(), scripts.actions[:, 1].tolist()):
        rec.append(b, col)
    assert float(calibration_score(rec).max()) != scripts.report["calibration_scores"][0]


def three_signal_instance():
    """An indifferent 2x2 game under a product mediator, so all row signals
    share one assessment and so do both column signals.  Row signals 0 and
    1 play the top row and signal 2 the bottom row; the column signals play
    different columns."""
    game = Game([("top", "bottom"), ("left", "right")], np.zeros((2, 2, 2)))
    psi = JointDistribution(np.outer([1 / 3] * 3, [1 / 2] * 2))
    mg = MediatedGame(game, (("s0", "s1", "s2"), ("c0", "c1")), psi)
    sigma = RandomizedStrategyProfile((np.eye(2)[[0, 0, 1]], np.eye(2)))
    repair = {
        (0, 2): [np.array([0.5 - 0.1 / l, 0.5 + 0.1 / l]) for l in range(1, 5)],
        (1, 1): [np.array([0.6 + 0.05 / l, 0.4 - 0.05 / l]) for l in range(1, 5)],
    }
    return mg, sigma, repair


def test_signal_playing_the_lowest_signals_action_keeps_its_assessment():
    mg, sigma, repair = three_signal_instance()
    T = 600
    scripts = construct_calibrated_replay(mg, sigma, T, repair_points=repair)
    assert scripts.report["collisions_repaired"] == 2
    assert max(scripts.report["calibration_scores"]) <= 0.05
    base = signal_assessment(mg, sigma, 0, 0).flat()
    for b, shown in zip(scripts.signals[:, 0].tolist(), scripts.assessments[0]):
        assert np.array_equal(shown, base) == (b < 2)
    # each unrepaired collision names two signals whose actions differ
    for i in (0, 1):
        partial_repair = {key: pts for key, pts in repair.items() if key[0] != i}
        with pytest.raises(AssessmentCollisionError) as err:
            construct_calibrated_replay(mg, sigma, T, repair_points=partial_repair)
        assert err.value.player == i
        a, b = err.value.signal_a, err.value.signal_b
        assert sigma.pure_action(i, a) != sigma.pure_action(i, b)


def reference_quota_schedule(weights, T):
    """The largest-deficit schedule with one ``np.argmax`` per step."""
    support = np.flatnonzero(weights > 0.0)
    w = weights[support]
    counts = np.zeros(support.size)
    out = np.empty(T, dtype=np.int64)
    for t in range(1, T + 1):
        pick = int(np.argmax(t * w - counts))
        counts[pick] += 1
        out[t - 1] = support[pick]
    return out


def _quota_cases():
    rng = np.random.default_rng(16)
    for _ in range(200):
        d = int(rng.integers(1, 25))
        w = rng.dirichlet(np.full(d, 0.5))
        w[rng.random(d) < 0.4] = 0.0
        if not w.any():
            w[rng.integers(d)] = 1.0
        yield w / w.sum(), int(rng.integers(1, 3002))
    # exact ties: equal weights and weights that are sums of powers of two
    for d in (1, 2, 3, 4, 7, 8, 16):
        yield np.full(d, 1.0 / d), 3001
    yield np.array([0.5, 0.25, 0.0, 0.125, 0.125]), 3001
    yield np.array([0.375, 0.375, 0.25, 0.0]), 3001


def test_quota_schedule_matches_argmax_reference():
    for weights, T in _quota_cases():
        got = _quota_schedule(JointDistribution(weights), T)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_quota_schedule(weights, T))
