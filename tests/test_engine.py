"""Engine runs, traces, determinism, and CPT regret matrices."""

import numpy as np
import pytest

from cpt_games.calibration import ForecastRecord
from cpt_games.engine import (
    PLAN_BLOCK_STEPS,
    ActionScriptStrategy,
    AssessmentDrivenStrategy,
    FixedMixStrategy,
    ForecastingBestReaction,
    MixScheduleStrategy,
    Strategy,
    assessment_record,
    cpt_regret_matrix,
    max_calibration_score,
    regret_matrix_from_counts,
    run_engine,
)
from cpt_games.cpt import cpt_regret
from cpt_games.games import Game, conditional, marginal
from cpt_games.equilibrium import region_membership
from cpt_games.harness import random_game
from cpt_games.scripted import (
    _alternating_assessment_2p,
    _alternating_assessment_3p,
    _column_assessment_3p,
    block_adversary,
    counterexample_game,
    counterexample_game_3p,
    probe_strategy_family,
)


def eut_regret_direct(game, i, actions, t, a, d):
    """Independent oracle: the averaged payoff-difference sum."""
    total = 0.0
    for tau in range(t):
        if actions[tau, i] == a:
            profile = list(actions[tau])
            dev = profile.copy()
            dev[i] = d
            total += game.payoffs[i][tuple(dev)] - game.payoffs[i][tuple(profile)]
    return total / t


class TestRunEngine:
    def test_fixed_point_masses_make_point_empirical(self):
        g = Game([("a", "b"), ("x", "y", "z")], np.zeros((2, 2, 3)))
        trace = run_engine(g, [FixedMixStrategy([0, 1]), FixedMixStrategy([0, 0, 1])], 50, 3)
        assert trace.empirical().weights[1, 2] == 1.0

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(0)
        g = random_game(rng, (2, 3))
        def strategies():
            return [FixedMixStrategy([0.4, 0.6]), FixedMixStrategy([0.2, 0.5, 0.3])]
        t1 = run_engine(g, strategies(), 300, 11)
        t2 = run_engine(g, strategies(), 300, 11)
        assert np.array_equal(t1.actions, t2.actions)

    def test_different_seeds_differ(self):
        g = Game([("a", "b"), ("x", "y")], np.zeros((2, 2, 2)))
        s = lambda: [FixedMixStrategy([0.5, 0.5]), FixedMixStrategy([0.5, 0.5])]
        t1 = run_engine(g, s(), 200, 1)
        t2 = run_engine(g, s(), 200, 2)
        assert not np.array_equal(t1.actions, t2.actions)

    def test_reusing_strategy_objects_is_safe(self):
        g = counterexample_game()
        strategies = [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(lambda t: (t - 1) % 4),
        ]
        t1 = run_engine(g, strategies, 100, 5)
        t2 = run_engine(g, strategies, 100, 5)
        assert np.array_equal(t1.actions, t2.actions)

    def test_scripted_pair_reaches_cycle_average(self, mu_star):
        g = counterexample_game()
        strategies = [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(lambda t: (t - 1) % 4),
        ]
        trace = run_engine(g, strategies, 4000, 0)
        assert np.abs(trace.empirical().weights - mu_star.weights).max() < 1e-3

    @pytest.mark.parametrize("period", [1, 2, 4])
    def test_proportional_checkpoints_equal_fresh_computation(self, period):
        # periodic play repeats the reduced count vector at every checkpoint
        # that is a multiple of the period; those share one computation
        g = random_game(np.random.default_rng(21), (4, 4))
        strategies = [
            ActionScriptStrategy(lambda t: (t - 1) % period),
            ActionScriptStrategy(lambda t: ((t - 1) // 2) % 2 * 3),
        ]
        # 3001 is no multiple of 4: the horizon has the support of t = 2048
        # but other proportions
        trace = run_engine(g, strategies, 3001, 1)
        for cp in trace.checkpoints:
            counts = trace.counts(cp.t)
            assert np.array_equal(cp.xi, counts / float(cp.t))
            for i in range(g.n):
                assert np.array_equal(cp.regrets[i], regret_matrix_from_counts(g, i, counts, cp.t))
        arrays = [cp.xi for cp in trace.checkpoints]
        arrays += [r for cp in trace.checkpoints for r in cp.regrets]
        assert not any(
            np.shares_memory(x, y) for k, x in enumerate(arrays) for y in arrays[k + 1:]
        )
        distinct = {cp.xi.tobytes() for cp in trace.checkpoints}
        assert len(distinct) < len(trace.checkpoints)

    def test_checkpoints_match_recomputation(self):
        rng = np.random.default_rng(13)
        g = random_game(rng, (2, 2, 2))
        strategies = [FixedMixStrategy(rng.dirichlet(np.ones(2))) for _ in range(3)]
        trace = run_engine(g, strategies, 257, 7)
        for cp in trace.checkpoints:
            assert np.abs(cp.xi - trace.counts(cp.t) / cp.t).max() < 1e-12
            for i in range(3):
                assert np.abs(
                    cp.regrets[i] - cpt_regret_matrix(g, i, trace, cp.t)
                ).max() < 1e-12


def reference_run(game, strategies, T, seed):
    """Step-by-step engine loop that repositions each Philox stream per step.

    Player i's generator is keyed by (seed, i); before step t its counter is
    set to t with an empty buffer, so the step draws from block t + 1.  A
    planned strategy's step is read off ``plan(T)``; a strategy without a
    plan gets one uniform drawn first.  The action takes the next draw, and
    a one-action player draws none for it.  Returns actions, mixes,
    assessment ids and dictionaries, and the (t, xi, regrets) checkpoints.
    """
    n = game.n
    plans = []
    for i, s in enumerate(strategies):
        s.start(game, i)
        plans.append(s.plan(T))
    gens = []
    for i in range(n):
        key = np.random.SeedSequence([seed, i]).generate_state(2, dtype=np.uint64)
        bg = np.random.Philox(counter=[0, 0, 0, 0], key=key)
        gens.append((bg, np.random.Generator(bg)))
    actions = np.zeros((T, n), dtype=np.int64)
    mixes = [np.zeros((T, game.num_actions(i))) for i in range(n)]
    ids = [np.full(T, -1, dtype=np.int64) for _ in range(n)]
    dicts = [[] for _ in range(n)]
    counts = np.zeros(game.shape, dtype=np.int64)
    checkpoints = []
    for t in range(1, T + 1):
        profile = []
        for i, strat in enumerate(strategies):
            bg, rng = gens[i]
            state = bg.state
            state["state"]["counter"][:] = 0
            state["state"]["counter"][0] = t
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            state["uinteger"] = 0
            bg.state = state
            if plans[i] is None:
                mix, assess = strat.mix(t, rng.random())
            else:
                mix = plans[i][0][t - 1]
                assess = None if plans[i][1] is None else plans[i][1][t - 1]
            mixes[i][t - 1] = mix
            a = 0
            if mix.size > 1:
                u = rng.random()
                a = min(int(np.searchsorted(np.cumsum(mix), u, side="right")), mix.size - 1)
            profile.append(a)
            if assess is not None:
                known = [k for k, v in enumerate(dicts[i]) if v.tobytes() == assess.tobytes()]
                if not known:
                    dicts[i].append(np.asarray(assess, dtype=float).copy())
                ids[i][t - 1] = known[0] if known else len(dicts[i]) - 1
        profile = tuple(profile)
        actions[t - 1] = profile
        counts[profile] += 1
        for strat in strategies:
            strat.observe(t, profile)
        if t & (t - 1) == 0 or t == T:
            regrets = [regret_matrix_from_counts(game, i, counts, t) for i in range(n)]
            checkpoints.append((t, counts / float(t), regrets))
    return actions, mixes, ids, dicts, checkpoints


@pytest.mark.parametrize(
    "case",
    ["fixed-mix", "block-adversary", "forecaster", "mix-only", "scripted-2p", "scripted-3p",
     "1x3", "3x1"],
)
def test_run_engine_matches_reference_loop(case):
    if case == "fixed-mix":
        game = counterexample_game()
        make = lambda: [FixedMixStrategy([0.3, 0.7]), FixedMixStrategy([0.1, 0.2, 0.3, 0.4])]
    elif case == "block-adversary":
        game = counterexample_game()
        make = lambda: [FixedMixStrategy([0.5, 0.5]), block_adversary(5)]
    elif case == "forecaster":
        game = counterexample_game()
        make = lambda: [ForecastingBestReaction(0.25), block_adversary(5)]
    elif case == "mix-only":
        # a uniform step-loop mix: its action takes word 1, after the word mix reads
        game = counterexample_game()
        make = lambda: [EvenStepAssessments(), ForecastingBestReaction(0.25)]
    elif case == "scripted-2p":
        game = counterexample_game()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(
                lambda t: (t - 1) % 4, assessment_at=lambda t: np.tile([1.0, 0.0], (t.size, 1))
            ),
        ]
    elif case == "scripted-3p":
        game = counterexample_game_3p()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
        ]
    elif case == "1x3":
        game = random_game(np.random.default_rng(3), (1, 3))
        make = lambda: [FixedMixStrategy([1.0]), ForecastingBestReaction(0.25)]
    else:
        game = random_game(np.random.default_rng(4), (3, 1))
        make = lambda: [FixedMixStrategy([0.2, 0.3, 0.5]), FixedMixStrategy([1.0])]
    T = 150
    for seed in (0, 1, 7):
        trace = run_engine(game, make(), T, seed)
        actions, mixes, ids, dicts, checkpoints = reference_run(game, make(), T, seed)
        assert np.array_equal(trace.actions, actions)
        for i in range(game.n):
            assert np.array_equal(trace.mixes[i], mixes[i])
            assert np.array_equal(trace.assessment_ids[i], ids[i])
            assert len(trace.assessment_dicts[i]) == len(dicts[i])
            for got, want in zip(trace.assessment_dicts[i], dicts[i]):
                assert np.array_equal(got, want)
        assert [cp.t for cp in trace.checkpoints] == [t for t, _, _ in checkpoints]
        for cp, (_, xi, regrets) in zip(trace.checkpoints, checkpoints):
            assert np.array_equal(cp.xi, xi)
            for got, want in zip(cp.regrets, regrets):
                assert np.array_equal(got, want)


def assert_matches_reference(trace, reference):
    actions, mixes, ids, dicts, checkpoints = reference
    assert np.array_equal(trace.actions, actions)
    for i in range(len(trace.shape)):
        assert np.array_equal(trace.mixes[i], mixes[i])
        assert np.array_equal(trace.assessment_ids[i], ids[i])
        assert len(trace.assessment_dicts[i]) == len(dicts[i])
        for got, want in zip(trace.assessment_dicts[i], dicts[i]):
            assert np.array_equal(got, want)
    assert [cp.t for cp in trace.checkpoints] == [t for t, _, _ in checkpoints]
    for cp, (_, xi, regrets) in zip(trace.checkpoints, checkpoints):
        assert np.array_equal(cp.xi, xi)
        for got, want in zip(cp.regrets, regrets):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("family", ["always-top", "always-bottom"])
def test_planned_probe_runs_match_reference_loop(family):
    # the tail probe's run: both players planned, drawn in one block
    game = counterexample_game()
    factory = probe_strategy_family(family)
    for seed in range(200):
        make = lambda: [factory(), block_adversary(5)]
        trace = run_engine(game, make(), 250, seed)
        assert_matches_reference(trace, reference_run(game, make(), 250, seed))


@pytest.mark.parametrize(
    "case", ["scripted-2p", "scripted-3p", "planned-around-forecaster", "mix-only", "long"]
)
def test_planned_play_matches_reference_loop(case):
    T = 1000  # not a power of two: the last checkpoint is the horizon
    if case == "scripted-2p":
        game = counterexample_game()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(
                lambda t: (t - 1) % 4, assessment_at=lambda t: np.tile([1.0, 0.0], (t.size, 1))
            ),
        ]
    elif case == "scripted-3p":
        game = counterexample_game_3p()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
        ]
    elif case == "planned-around-forecaster":
        # the step loop runs only over the forecaster, between two planned players
        game = counterexample_game_3p()
        make = lambda: [FixedMixStrategy([0.3, 0.7]), ForecastingBestReaction(0.25), block_adversary(3)]
        T = 300
    elif case == "mix-only":
        # a strategy that defines only ``mix`` goes through the step loop
        game = counterexample_game_3p()
        make = lambda: [EvenStepAssessments(), block_adversary(3), EvenStepAssessments()]
        T = 300
    else:
        # longer than one draw block of the planned players
        game = counterexample_game()
        make = lambda: [
            FixedMixStrategy([0.3, 0.7]),
            ActionScriptStrategy(lambda t: (t * t) % 4, assessment_at=lambda t: np.eye(2)[t % 3 // 2]),
        ]
        T = 2 * PLAN_BLOCK_STEPS + 5
    for seed in (0, 3):
        trace = run_engine(game, make(), T, seed)
        assert_matches_reference(trace, reference_run(game, make(), T, seed))


def test_plan_of_the_wrong_shape_is_rejected():
    game = counterexample_game()
    with pytest.raises(ValueError, match="plan"):
        run_engine(game, [FixedMixStrategy([0.2, 0.3, 0.5]), block_adversary(5)], 20, 0)


def _one_row(row):
    return lambda t: np.asarray(row, dtype=float)


def _rows_of_width(width):
    return lambda t: np.full((t.size, width), 1.0 / width)


class CustomPlan(Strategy):
    """Uniform over four actions, with the assessments ``assess(T)``."""

    def __init__(self, assess):
        self.assess = assess

    def plan(self, T):
        return np.tile([0.25] * 4, (T, 1)), self.assess(T)


@pytest.mark.parametrize(
    "player, strategy, what",
    [
        (1, MixScheduleStrategy(_one_row([0.25] * 4)), "mixes"),
        (1, MixScheduleStrategy(_rows_of_width(3)), "mixes"),
        (1, ActionScriptStrategy(lambda t: 2), "mixes"),
        (1, ActionScriptStrategy(lambda t: (t - 1) % 4, _one_row([1.0, 0.0])), "assessments"),
        (1, ActionScriptStrategy(lambda t: (t - 1) % 4, _rows_of_width(3)), "assessments"),
        (1, AssessmentDrivenStrategy(_one_row([1.0, 0.0])), "assessments"),
        (0, AssessmentDrivenStrategy(_one_row([0.25] * 4)), "assessments"),
        (0, AssessmentDrivenStrategy(_rows_of_width(3)), "assessments"),
        (1, CustomPlan(lambda T: np.array([1.0, 0.0])), "assessments"),
        (1, CustomPlan(lambda T: np.full((T, 3), 1.0 / 3)), "assessments"),
    ],
)
def test_schedule_of_the_wrong_shape_is_rejected(player, strategy, what):
    # a schedule maps the (T,) steps to a (T, width) array, not to one row;
    # run_engine holds a custom plan to the same shapes
    game = counterexample_game()
    strategies = [FixedMixStrategy([1.0, 0.0]), FixedMixStrategy([0.25] * 4)]
    strategies[player] = strategy
    with pytest.raises(ValueError, match=f"player {player}'s plan has {what} of shape"):
        run_engine(game, strategies, 20, 0)


def test_schedules_are_called_once_per_plan():
    calls = []

    def counted(fn):
        def schedule(t):
            calls.append(t.shape)
            return fn(t)
        return schedule

    game = counterexample_game_3p()
    T = 2 * PLAN_BLOCK_STEPS + 5
    strategies = [
        AssessmentDrivenStrategy(counted(_alternating_assessment_3p)),
        ActionScriptStrategy(counted(lambda t: (t - 1) % 4), counted(_column_assessment_3p)),
        MixScheduleStrategy(counted(block_adversary(3).schedule)),
    ]
    run_engine(game, strategies, T, 0, checkpoints=False)
    assert calls == [(T,)] * 4


@pytest.mark.parametrize("mix", [[0.2, 0.2], [1.2, -0.2], [np.nan, 1.0]])
def test_plan_of_non_distributions_is_rejected(mix):
    game = counterexample_game()
    with pytest.raises(ValueError, match="player 0's plan has mixes that are not distributions"):
        run_engine(game, [FixedMixStrategy(mix), block_adversary(5)], 20, 0)


class StepLoopMix(Strategy):
    """Uniform play from the step loop, except the mix ``row`` at step ``at``."""

    def __init__(self, row, at):
        self.row = np.asarray(row, dtype=float)
        self.at = at

    def mix(self, t, u):
        if t == self.at:
            return self.row, None
        k = self.game.num_actions(self.player)
        return np.full(k, 1.0 / k), None


@pytest.mark.parametrize(
    "player, row, at, T",
    [
        (0, [0.2, 0.2], 1, 50),
        (0, [np.nan, 1.0], 50, 50),
        (1, [0.25, 0.25, 0.25, 0.5], PLAN_BLOCK_STEPS + 3, PLAN_BLOCK_STEPS + 10),
        (1, [1.2, -0.2, 0.0, 0.0], 7, 20),
    ],
)
def test_step_loop_mixes_that_are_not_distributions_are_rejected(player, row, at, T):
    game = counterexample_game()
    strategies = [FixedMixStrategy([0.5, 0.5]), FixedMixStrategy([0.25] * 4)]
    strategies[player] = StepLoopMix(row, at)
    match = f"player {player}'s step loop has mixes that are not distributions"
    with pytest.raises(ValueError, match=match):
        run_engine(game, strategies, T, 0, checkpoints=False)


def test_planned_dirichlet_mixes_match_reference_loop():
    # the distribution check reads the plan only: valid mixes play as before
    game = counterexample_game()
    rows = np.random.default_rng(11).dirichlet(np.ones(4), size=300)
    make = lambda: [
        FixedMixStrategy(np.random.default_rng(12).dirichlet(np.ones(2))),
        MixScheduleStrategy(lambda t: rows[t - 1]),
    ]
    for seed in (0, 5):
        trace = run_engine(game, make(), 300, seed)
        assert_matches_reference(trace, reference_run(game, make(), 300, seed))


def regret_matrix_by_pairs(game, i, counts, t):
    """Reference: one ``cpt_regret`` call for every swap (a, d) of a played a."""
    k = game.num_actions(i)
    out = np.zeros((k, k))
    for a in range(k):
        slab = np.take(counts, a, axis=i).ravel()
        if slab.sum() == 0:
            continue
        cond = slab / float(slab.sum())
        realized = np.take(game.payoffs[i], a, axis=i).ravel()
        for d in range(k):
            if d != a:
                counterfactual = np.take(game.payoffs[i], d, axis=i).ravel()
                reg = cpt_regret(cond, counterfactual, realized, game.prefs[i])
                out[a, d] = slab.sum() / float(t) * reg
    return out


class TestRegretMatrix:
    def test_eut_mode_equals_direct_average(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            sizes = tuple(rng.integers(2, 4) for _ in range(n))
            g = random_game(rng, sizes, eut=True)
            strategies = [FixedMixStrategy(rng.dirichlet(np.ones(s))) for s in sizes]
            trace = run_engine(g, strategies, 100, int(rng.integers(1 << 30)))
            for i in range(n):
                K = cpt_regret_matrix(g, i, trace, 100)
                for a in range(sizes[i]):
                    for d in range(sizes[i]):
                        if a == d:
                            continue
                        direct = eut_regret_direct(g, i, trace.actions, 100, a, d)
                        assert K[a, d] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("which", ["2p", "3p", "random-3p"])
    def test_equals_per_pair_regret_loop(self, which):
        rng = np.random.default_rng(53)
        if which == "2p":
            g = counterexample_game()
        elif which == "3p":
            g = counterexample_game_3p()
        else:
            g = random_game(rng, (2, 3, 2))
        # the last action of player 0 is never played
        mixes = [rng.dirichlet(np.ones(s)) for s in g.shape]
        mixes[0][-1] = 0.0
        mixes[0] /= mixes[0].sum()
        trace = run_engine(g, [FixedMixStrategy(m) for m in mixes], 300, 7)
        for t in (1, 5, 64, 300):
            counts = trace.counts(t)
            for i in range(g.n):
                got = regret_matrix_from_counts(g, i, counts, t)
                assert np.array_equal(got, regret_matrix_by_pairs(g, i, counts, t))

    def test_never_played_row_is_zero(self):
        g = counterexample_game()
        strategies = [FixedMixStrategy([1, 0]), FixedMixStrategy([0.25] * 4)]
        trace = run_engine(g, strategies, 64, 3)
        K = cpt_regret_matrix(g, 0, trace, 64)
        assert np.all(K[1] == 0.0)

    def test_cyclic_counterexample_regret_value(self):
        # derived from the reported values: 1.99 - 1.985 with full top-row play
        g = counterexample_game()
        strategies = [FixedMixStrategy([1, 0]), ActionScriptStrategy(lambda t: (t - 1) % 4)]
        trace = run_engine(g, strategies, 4000, 0)
        K = cpt_regret_matrix(g, 0, trace, 4000)
        assert K[0, 1] == pytest.approx(0.005, abs=3e-3)

    def test_matches_negated_scaled_margin(self):
        # the regret entry is exactly the negated region margin scaled by
        # the empirical frequency of the row action
        rng = np.random.default_rng(29)
        g = random_game(rng, (2, 3))
        strategies = [FixedMixStrategy([0.5, 0.5]), FixedMixStrategy([0.3, 0.3, 0.4])]
        trace = run_engine(g, strategies, 200, 23)
        xi = trace.empirical()
        for cp in trace.checkpoints:
            xi_t = trace.empirical(cp.t)
            for i in range(2):
                m = marginal(xi_t, i)
                for a in range(g.num_actions(i)):
                    if m[a] <= 0:
                        continue
                    pi = conditional(xi_t, i, a)
                    for d in range(g.num_actions(i)):
                        if d == a:
                            continue
                        _, margin = region_membership(g, i, a, d, pi)
                        assert cp.regrets[i][a, d] == pytest.approx(
                            -m[a] * margin, abs=1e-9
                        )


class TestAssessmentLogging:
    def test_scripted_assessments_are_calibrated(self):
        g = counterexample_game()
        strategies = [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(
                lambda t: (t - 1) % 4, assessment_at=lambda t: np.tile([1.0, 0.0], (t.size, 1))
            ),
        ]
        trace = run_engine(g, strategies, 400, 0)
        assert max_calibration_score(trace, 0) == 0.0
        assert max_calibration_score(trace, 1) == 0.0

    def test_forecaster_strategy_logs_grid_assessments(self):
        g = counterexample_game()
        strategies = [ForecastingBestReaction(0.25), FixedMixStrategy([0.25] * 4)]
        trace = run_engine(g, strategies, 200, 17)
        assert np.all(trace.assessment_ids[0] >= 0)
        dic = trace.assessment_dicts[0]
        assert all(abs(v.sum() - 1.0) < 1e-9 for v in dic)


def reference_assessment_record(trace, player):
    """Frozen copy of the per-step assessment record: one NumPy lookup of
    the id and of the opponents' flat outcome per step."""
    n = len(trace.shape)
    opp_shape = tuple(s for j, s in enumerate(trace.shape) if j != player)
    rec = ForecastRecord(int(np.prod(opp_shape)))
    ids = trace.assessment_ids[player]
    remap = [rec.intern(v) for v in trace.assessment_dicts[player]]
    opp_cols = [j for j in range(n) if j != player]
    flat = np.ravel_multi_index(tuple(trace.actions[:, j] for j in opp_cols), opp_shape)
    for t in range(trace.horizon):
        if ids[t] >= 0:
            rec.append(remap[ids[t]], int(flat[t]))
    return rec


class EvenStepAssessments(Strategy):
    """Uniform play that logs a cycling point-mass assessment on even steps."""

    def mix(self, t, u):
        k = self.game.num_actions(self.player)
        if t % 2:
            return np.full(k, 1.0 / k), None
        d = self.game.num_opponent_profiles(self.player)
        return np.full(k, 1.0 / k), np.eye(d)[(t // 2) % d]


@pytest.mark.parametrize(
    "case", ["unlogged", "partly-logged", "forecaster", "scripted-2p", "scripted-3p"]
)
def test_assessment_record_matches_reference(case):
    if case == "unlogged":
        game = counterexample_game()
        make = lambda: [FixedMixStrategy([0.3, 0.7]), block_adversary(5)]
    elif case == "partly-logged":
        game = counterexample_game_3p()
        make = lambda: [EvenStepAssessments(), FixedMixStrategy([0.5] * 2 + [0.0] * 2), EvenStepAssessments()]
    elif case == "forecaster":
        game = counterexample_game()
        make = lambda: [ForecastingBestReaction(0.25), ForecastingBestReaction(0.5)]
    elif case == "scripted-2p":
        game = counterexample_game()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(
                lambda t: (t - 1) % 4, assessment_at=lambda t: np.tile([1.0, 0.0], (t.size, 1))
            ),
        ]
    else:
        game = counterexample_game_3p()
        make = lambda: [
            AssessmentDrivenStrategy(_alternating_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
        ]
    for seed in (0, 1, 7):
        trace = run_engine(game, make(), 300, seed, checkpoints=False)
        for i in range(game.n):
            got = assessment_record(trace, i)
            want = reference_assessment_record(trace, i)
            assert got.n_outcomes == want.n_outcomes
            assert len(got.dictionary) == len(want.dictionary)
            assert all(np.array_equal(g, w) for g, w in zip(got.dictionary, want.dictionary))
            assert got.forecasts == want.forecasts
            assert got.outcomes == want.outcomes
            if case == "unlogged":
                assert len(got) == 0


class TestBestReactionStrategies:
    def test_constant_assessment_pins_the_action(self):
        g = counterexample_game()
        odd = np.array([0.5, 0.0, 0.5, 0.0])
        unif = np.full(4, 0.25)
        for assess, expected in ((odd, 0), (unif, 1)):
            strategies = [
                AssessmentDrivenStrategy(lambda t, a=assess: np.tile(a, (t.size, 1))),
                FixedMixStrategy([0.25] * 4),
            ]
            trace = run_engine(g, strategies, 50, 2)
            assert np.all(trace.actions[:, 0] == expected)

    def test_eut_point_mass_assessment_is_myopic(self):
        rng = np.random.default_rng(37)
        g = random_game(rng, (3, 2), eut=True)
        point = np.array([0.0, 1.0])
        strategies = [
            AssessmentDrivenStrategy(lambda t: np.tile(point, (t.size, 1))),
            FixedMixStrategy([0.5, 0.5]),
        ]
        trace = run_engine(g, strategies, 20, 1)
        assert np.all(trace.actions[:, 0] == int(np.argmax(g.payoffs[0][:, 1])))

    def test_mixes_logged_per_step(self):
        g = counterexample_game()
        strategies = [FixedMixStrategy([0.3, 0.7]), FixedMixStrategy([0.25] * 4)]
        trace = run_engine(g, strategies, 30, 9)
        assert trace.mixes[0].shape == (30, 2)
        assert np.allclose(trace.mixes[0], [0.3, 0.7])
        assert np.allclose(trace.mixes[1], 0.25)


class TestPerPlayerConvergence:
    def test_calibrated_player_converges_to_her_hull_alone(self):
        # only the row player is calibrated; the column player runs the
        # nonstationary block schedule, yet the empirical distribution stays
        # near the row player's per-action acceptance hulls
        from cpt_games.equilibrium import mediated_hull_distance
        from cpt_games.scripted import block_adversary

        g = counterexample_game()
        for seed in (0, 2):
            strategies = [ForecastingBestReaction(0.1), block_adversary(5)]
            trace = run_engine(g, strategies, 4000, seed, checkpoints=False)
            d = mediated_hull_distance(g, trace.empirical(), resolution=8, players=[0])
            assert d <= 0.02
