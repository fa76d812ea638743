"""Calibration scores and the grid forecaster."""

import copy
import hashlib
import math

import numpy as np
import pytest

from cpt_games.calibration import (
    CalibratedForecaster,
    ForecastRecord,
    calibration_score,
)


def drive(forecaster, nature, t_max, seed):
    """Run forecaster against a Nature callback; returns the score record."""
    rng = np.random.default_rng(seed)
    rec = ForecastRecord(forecaster.n_outcomes)
    ids = [rec.intern(forecaster.grid[k]) for k in range(forecaster.grid.shape[0])]
    state = {"last_mode": 0}
    for t in range(t_max):
        k = forecaster.predict(rng.random())
        y = nature(t, state, rng)
        state["last_mode"] = int(np.argmax(forecaster.grid[k]))
        forecaster.observe(y)
        rec.append(ids[k], y)
    return rec


class TestCalibrationScore:
    def test_point_mass_on_realized_outcome_scores_zero(self):
        rec = ForecastRecord(3)
        ids = [rec.intern(np.eye(3)[y]) for y in range(3)]
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = int(rng.integers(3))
            rec.append(ids[y], y)
        assert np.all(calibration_score(rec) == 0.0)

    def test_alternating_half_half_schedule_scores_zero(self):
        # odd steps forecast (.5,0,.5,0) and see outcomes 0,2 alternately;
        # even steps forecast (0,.5,0,.5) and see 1,3; at full cycles the
        # conditional frequencies equal the forecasts exactly
        rec = ForecastRecord(4)
        odd = rec.intern(np.array([0.5, 0.0, 0.5, 0.0]))
        even = rec.intern(np.array([0.0, 0.5, 0.0, 0.5]))
        for t in range(1, 41):
            rec.append(odd if t % 2 else even, (t - 1) % 4)
        assert np.all(calibration_score(rec) == 0.0)

    def test_constant_forecast_against_alternating_and_constant(self):
        rec = ForecastRecord(2)
        q = rec.intern(np.array([0.5, 0.5]))
        for t in range(100):
            rec.append(q, t % 2)
        assert np.all(calibration_score(rec) == 0.0)
        rec2 = ForecastRecord(2)
        q2 = rec2.intern(np.array([0.5, 0.5]))
        for t in range(100):
            rec2.append(q2, 0)
        assert np.allclose(calibration_score(rec2), [0.5, 0.5])

    def test_record_starts_empty_from_its_outcome_count(self):
        # a dictionary handed in without its interning keys would let
        # ``intern`` add a second copy of a vector it already holds
        with pytest.raises(TypeError):
            ForecastRecord(2, dictionary=[np.array([0.5, 0.5])])
        rec = ForecastRecord(2)
        assert rec.intern(np.array([0.5, 0.5])) == rec.intern(np.array([0.5, 0.5])) == 0

    def test_record_from_steps_interns_in_order_of_first_use(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0])]
        rec = ForecastRecord.from_steps(2, vectors, np.array([2, 0, 2, 1]), np.array([1, 0, 1, 1]))
        assert [v.tolist() for v in rec.dictionary] == [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        assert rec.forecasts == [0, 1, 0, 2]
        assert rec.outcomes == [1, 0, 1, 1]
        for bad in (2, -1):
            with pytest.raises(ValueError, match="outcome"):
                ForecastRecord.from_steps(2, vectors, np.array([0, 1]), np.array([0, bad]))
        for bad in (3, -1):
            # -1 is the engine's id of an unlogged step
            with pytest.raises(ValueError, match="forecast id"):
                ForecastRecord.from_steps(2, vectors, np.array([0, bad]), np.array([0, 1]))


class TestForecaster:
    def test_grid_pitch(self):
        fc = CalibratedForecaster(3, 0.25)
        assert fc.resolution == 4
        assert fc.grid.shape == (math.comb(4 + 2, 2), 3)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            CalibratedForecaster(2, 0.0)

    def test_deterministic_given_rng(self):
        a = CalibratedForecaster(2, 0.2)
        b = CalibratedForecaster(2, 0.2)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        for t in range(200):
            ka = a.predict(rng_a.random())
            kb = b.predict(rng_b.random())
            assert ka == kb
            a.observe(t % 2)
            b.observe(t % 2)

    @pytest.mark.parametrize(
        "name,nature,bound",
        [
            ("iid", lambda t, s, rng: int(rng.random() < 0.7), 0.22),
            ("constant", lambda t, s, rng: 0, 0.11),
            ("flip", lambda t, s, rng: 1 - s["last_mode"], 0.25),
        ],
    )
    def test_moderate_horizon_scores(self, name, nature, bound):
        # smoke-scale version of the acceptance run (t = 1e5 there)
        fc = CalibratedForecaster(2, 0.1)
        rec = drive(fc, nature, 20000, seed=42)
        assert float(calibration_score(rec).max()) <= bound


class DenseReference(CalibratedForecaster):
    """The forecaster with the invariant play solved on the whole grid.

    Positive regrets and their row sums are recomputed from ``_regret`` on
    every call, and the damped balance system is solved densely on every
    grid, whatever its size.
    """

    def _invariant_play(self):
        pos = np.maximum(self._regret, 0.0)
        rows = pos.sum(axis=1)
        kappa = rows.max()
        if kappa <= 0.0:
            return self._play
        q = rows.size
        delta = 1e-9
        scale = (1.0 - delta) / kappa
        a = -scale * pos.T
        idx = np.arange(q)
        a[idx, idx] = delta + scale * rows
        p = np.maximum(np.linalg.solve(a, np.full(q, delta / q)), 0.0)
        return p / p.sum()


def issue(fc, k, outcome):
    """Charge forecast ``k`` against ``outcome`` as if ``predict`` had drawn it."""
    fc._last = k
    fc.observe(outcome)


def grid_index(fc, point):
    return int(np.flatnonzero(np.all(np.isclose(fc.grid, point), axis=1))[0])


def dead_rows(fc):
    return int(np.count_nonzero(np.maximum(fc._regret, 0.0).sum(axis=1) == 0.0))


def assert_matches_dense(fc):
    ref = DenseReference(fc.n_outcomes, fc.epsilon)
    ref._regret[:] = fc._regret
    ref._play[:] = fc._play
    got = fc._invariant_play()
    want = ref._invariant_play()
    assert np.abs(got - want).max() <= 1e-12


class TestInvariantPlay:
    def test_many_dead_rows(self):
        fc = CalibratedForecaster(4, 0.1)
        rng = np.random.default_rng(1)
        for _ in range(25):
            issue(fc, int(rng.integers(fc.grid.shape[0])), int(rng.integers(4)))
        assert fc.grid.shape[0] == 286 and dead_rows(fc) >= 260
        assert_matches_dense(fc)

    @pytest.mark.parametrize("n_outcomes", [3, 4])
    def test_single_live_row(self, n_outcomes):
        fc = CalibratedForecaster(n_outcomes, 0.1)
        point = np.full(n_outcomes, 0.1)
        point[0] = 1.0 - 0.1 * (n_outcomes - 1)
        issue(fc, grid_index(fc, point), 1)
        assert dead_rows(fc) == fc.grid.shape[0] - 1
        assert_matches_dense(fc)

    @pytest.mark.parametrize("n_outcomes", [2, 3, 4])
    def test_all_rows_live(self, n_outcomes):
        fc = CalibratedForecaster(n_outcomes, 0.1)
        for k, g in enumerate(fc.grid):
            # an outcome the forecast does not put all its mass on
            issue(fc, k, int(np.argmin(g)))
        assert dead_rows(fc) == 0
        assert_matches_dense(fc)

    @pytest.mark.parametrize("n_outcomes", [2, 3, 4])
    def test_row_whose_regrets_turned_non_positive(self, n_outcomes):
        fc = CalibratedForecaster(n_outcomes, 0.1)
        rng = np.random.default_rng(n_outcomes)
        for _ in range(6):
            issue(fc, int(rng.integers(fc.grid.shape[0])), int(rng.integers(n_outcomes)))
        # a minimum-norm grid point that has seen every outcome once has no
        # positive regret: each alternative's total loss is at least its own
        k = int(np.argmin((fc.grid**2).sum(axis=1)))
        issue(fc, k, 0)
        assert fc._rows[fc._slot[k]] > 0.0
        for y in range(1, n_outcomes):
            issue(fc, k, y)
        assert fc._rows[fc._slot[k]] == 0.0 and fc._regret[k].min() < 0.0
        assert_matches_dense(fc)

    @pytest.mark.parametrize(
        "n_outcomes,epsilon,steps",
        [(2, 0.1, 3000), (3, 0.1, 600), (4, 0.1, 200), (5, 0.125, 12), (5, 0.125, 200)],
    )
    def test_forecasts_match_dense_reference(self, n_outcomes, epsilon, steps):
        # grids of 11, 66, 286 and 495 points, each solving its live block,
        # so every play is the exact damped invariant distribution
        for seed in (0, 1):
            new = CalibratedForecaster(n_outcomes, epsilon)
            ref = DenseReference(n_outcomes, epsilon)
            rng_new = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            nature = np.random.default_rng([seed, 1])
            weights = nature.dirichlet(np.ones(n_outcomes))
            for _ in range(steps):
                k = new.predict(rng_new.random())
                assert k == ref.predict(rng_ref.random())
                assert np.abs(new._play - ref._play).max() <= 1e-12
                y = int(nature.choice(n_outcomes, p=weights))
                new.observe(y)
                ref.observe(y)

    @pytest.mark.parametrize(
        "n_outcomes,epsilon,steps,seed,digest",
        [
            (2, 0.1, 3000, 0, "e3d9a9086165f3f850433c82ba994eb0ff181f4d3053ee877d8772eeb5a2bca2"),
            (2, 0.1, 3000, 1, "d437bb2a54e5720f9fb1243ef6d665a79a82c1e66da1f8db7f2200159cb6802d"),
            (3, 0.1, 600, 0, "f71db5d072ee797687e3f28b3e896527eeba662ac9e25bb9b007540e6e1b587d"),
            (3, 0.1, 600, 1, "f09e3bac03fcd529d59bdae4534743e501ab833d8b6911dcf1ef1309f97671bf"),
            (4, 0.1, 200, 0, "8999102ba51116a052b3b9a8f332f892f7fdb27477aadf1d3be38432c5d05fbc"),
            (4, 0.1, 200, 1, "399438935c34be995ce3ee483915299e42977039365a9a40af7d030338456724"),
            (5, 0.125, 12, 0, "30533a20eea5eb4ad42c436423064d945aae429e2db82e914988eea48c52d1d2"),
            (5, 0.125, 12, 1, "104d7099ee9e14b93635869e7625267cd64e654389e93826bdb440936d72d9ba"),
        ],
    )
    def test_forecast_sequences_are_pinned(self, n_outcomes, epsilon, steps, seed, digest):
        # sha256 of the little-endian int64 forecast indices drawn in the
        # settings of test_forecasts_match_dense_reference, so a change to
        # any forecast fails here
        fc = CalibratedForecaster(n_outcomes, epsilon)
        rng = np.random.default_rng(seed)
        nature = np.random.default_rng([seed, 1])
        weights = nature.dirichlet(np.ones(n_outcomes))
        ks = []
        for _ in range(steps):
            ks.append(fc.predict(rng.random()))
            fc.observe(int(nature.choice(n_outcomes, p=weights)))
        assert hashlib.sha256(np.asarray(ks, dtype="<i8").tobytes()).hexdigest() == digest

    def test_failed_solve_raises(self, monkeypatch):
        # a direct solve that does not return a distribution is an error,
        # not a cue to fall back to another method
        fc = CalibratedForecaster(3, 0.1)
        q = fc.grid.shape[0]
        rng = np.random.default_rng(3)
        for _ in range(40):
            issue(fc, int(rng.integers(q)), int(rng.integers(3)))
        assert 0 < fc._m < q
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
        with pytest.raises(RuntimeError, match=f"{fc._m}-point live block"):
            fc.predict(rng.random())

    @pytest.mark.parametrize("n_outcomes,epsilon", [(2, 0.1), (3, 0.1), (4, 0.1), (5, 0.125)])
    def test_kept_positive_part_is_exact(self, n_outcomes, epsilon):
        rng = np.random.default_rng(7)
        for _ in range(2):
            fc = CalibratedForecaster(n_outcomes, epsilon)
            q = fc.grid.shape[0]
            for step in range(400):
                issue(fc, int(rng.integers(q)), int(rng.integers(n_outcomes)))
                if step % 50 == 0 or step == 399:
                    pos = np.maximum(fc._regret, 0.0)
                    slots = fc._point
                    assert np.array_equal(fc._pos, pos[np.ix_(slots, slots)])
                    assert np.array_equal(fc._rows, pos.sum(axis=1)[slots])
                    assert np.array_equal(fc._slot[slots], np.arange(q))
                    # every live point is in the block
                    assert np.all(pos[slots[fc._m :]] == 0.0)


def fresh_play(fc):
    """The play a fresh solve of the forecaster's current state gives."""
    return copy.deepcopy(fc)._invariant_play()


class TestKeptPlay:
    """``predict`` re-solves only after a step that changed a positive regret row."""

    @pytest.mark.parametrize("n_outcomes,steps", [(2, 1500), (3, 400), (4, 150)])
    def test_kept_play_is_a_fresh_solve(self, n_outcomes, steps):
        # grids of 11, 66 and 286 points: after every predict the play it
        # sampled from equals, bit for bit, a solve of the current state
        rng = np.random.default_rng(11)
        weights = rng.dirichlet(np.ones(n_outcomes))
        for _ in range(2):
            fc = CalibratedForecaster(n_outcomes, 0.1)
            for _ in range(steps):
                fc.predict(rng.random())
                assert np.array_equal(fc._play, fresh_play(fc))
                fc.observe(int(rng.choice(n_outcomes, p=weights)))
            assert 0 < fc.solves < fc.predicts == steps

    @pytest.mark.parametrize("n_outcomes", [2, 3, 4])
    def test_row_turning_non_positive_re_solves(self, n_outcomes):
        # the setting of test_row_whose_regrets_turned_non_positive: the last
        # charge takes a live row from positive to zero, which changes the play
        fc = CalibratedForecaster(n_outcomes, 0.1)
        rng = np.random.default_rng(n_outcomes)
        for _ in range(6):
            issue(fc, int(rng.integers(fc.grid.shape[0])), int(rng.integers(n_outcomes)))
        k = int(np.argmin((fc.grid**2).sum(axis=1)))
        for y in range(n_outcomes - 1):
            issue(fc, k, y)
        fc.predict(0.5)
        before = fc._play.copy()
        solves = fc.solves
        assert fc._rows[fc._slot[k]] > 0.0
        issue(fc, k, n_outcomes - 1)
        assert fc._rows[fc._slot[k]] == 0.0
        fc.predict(0.5)
        assert fc.solves == solves + 1
        assert not np.array_equal(fc._play, before)
        assert np.array_equal(fc._play, fresh_play(fc))

    @pytest.mark.parametrize("n_outcomes,steps", [(2, 3000), (3, 600)])
    def test_solves_count_the_steps_that_touched_a_positive_row(self, n_outcomes, steps):
        # an independent dense regret matrix: a step can change the play only
        # if the forecast it charged had or has a positive regret, and the
        # next predict solves after such a step unless no regret is positive
        fc = CalibratedForecaster(n_outcomes, 0.1)
        regret = np.zeros_like(fc._regret)
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(n_outcomes))
        touched = False
        want = 0
        flop = 0.0
        live = set()
        for _ in range(steps):
            if touched and (regret > 0.0).any():
                want += 1
                flop += len(live) ** 3 / 3.0
            k = fc.predict(rng.random())
            y = int(rng.choice(n_outcomes, p=weights))
            had = (regret[k] > 0.0).any()
            regret[k] += fc.loss[k, y] - fc.loss[:, y]
            has = (regret[k] > 0.0).any()
            if has:
                live.add(k)
            touched = had or has
            fc.observe(y)
        assert fc.predicts == steps and fc.solves == want and fc.solve_flop == flop
        if n_outcomes == 2:
            assert fc.solves < fc.predicts / 2

    def test_inputs_are_validated_before_any_state_changes(self):
        fc = CalibratedForecaster(3, 0.1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            fc.predict(rng.random())
            fc.observe(int(rng.integers(3)))
        k = fc.predict(0.25)
        state = copy.deepcopy(fc.__dict__)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="outcome index out of range"):
                fc.observe(bad)
        for bad in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match="u must lie"):
                fc.predict(bad)
        for name, value in state.items():
            assert np.array_equal(getattr(fc, name), value), name
        assert fc._last == k
        fc.observe(2)
