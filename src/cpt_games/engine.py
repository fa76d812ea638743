"""Repeated-game engine: strategies, traces, and CPT regret tracking.

One run plays a stage game for T steps.  At each step every player's
strategy produces a mixed action (possibly after drawing an assessment of
the opponents), the engine samples actions, and everyone observes the full
profile.  Randomness is counter-based: player i at step t draws from the
Philox block at counter t + 1 of a stream keyed by (seed, i), so traces
are bit-reproducible regardless of evaluation order and the players' draws
are mutually independent.  A block holds four 64-bit words, which the
strategy's own draws and the engine's action draw share, so a strategy
draws at most three words a step.

The trace logs actions, per-player assessment ids into the dictionary of
one ``ForecastRecord`` per player, and checkpoints of the empirical joint
distribution and the CPT regret matrices at powers of two.  Checkpoints are
computed from integer counts, so recomputing them from the action log is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedForecaster, ForecastRecord, calibration_score
from .cpt import row_values
from .equilibrium import best_reaction
from .games import Game, JointDistribution, OpponentDistribution, player_rows

__all__ = [
    "Strategy",
    "FixedMixStrategy",
    "MixScheduleStrategy",
    "ActionScriptStrategy",
    "AssessmentDrivenStrategy",
    "ForecastingBestReaction",
    "Checkpoint",
    "RunTrace",
    "run_engine",
    "cpt_regret_matrix",
    "regret_matrix_from_counts",
    "assessment_record",
    "max_calibration_score",
]


class Strategy:
    """Behavioral interface: (game, player, history) -> mixed action.

    ``start`` resets all internal state so a strategy object can be reused
    across runs; ``mix`` returns the step's mixed action and, optionally,
    the assessment vector over opponent profiles that produced it;
    ``observe`` shows the realized profile.  All randomization must come
    from the engine-supplied generator.
    """

    def start(self, game: Game, player: int, horizon: int) -> None:
        self.game = game
        self.player = player
        self.horizon = horizon

    def mix(self, t: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        raise NotImplementedError

    def observe(self, t: int, profile: tuple[int, ...]) -> None:
        pass


class FixedMixStrategy(Strategy):
    """Plays one mixed action forever."""

    def __init__(self, mix):
        self._mix = np.asarray(mix, dtype=float)

    def mix(self, t, rng):
        return self._mix, None


class MixScheduleStrategy(Strategy):
    """Plays a step-dependent mixed action given by ``schedule(t)``."""

    def __init__(self, schedule):
        self.schedule = schedule

    def mix(self, t, rng):
        return np.asarray(self.schedule(t), dtype=float), None


class ActionScriptStrategy(Strategy):
    """Plays ``action_at(t)`` deterministically; can log scripted assessments."""

    def __init__(self, action_at, assessment_at=None):
        self.action_at = action_at
        self.assessment_at = assessment_at

    def start(self, game, player, horizon):
        super().start(game, player, horizon)
        self._eye = np.eye(game.num_actions(player))

    def mix(self, t, rng):
        a = int(self.action_at(t))
        assess = None if self.assessment_at is None else np.asarray(self.assessment_at(t))
        return self._eye[a], assess


class AssessmentDrivenStrategy(Strategy):
    """Best-reacts to a scripted assessment of the opponents.

    ``assessment_at(t)`` returns a distribution over opponent profiles
    (flat, row-major over the other players).  Best reactions are memoized
    per distinct assessment, which keeps long scripted runs cheap.
    """

    def __init__(self, assessment_at):
        self.assessment_at = assessment_at

    def start(self, game, player, horizon):
        super().start(game, player, horizon)
        self._eye = np.eye(game.num_actions(player))
        self._cache: dict[bytes, int] = {}

    def mix(self, t, rng):
        assess = np.asarray(self.assessment_at(t), dtype=float).ravel()
        key = assess.tobytes()
        a = self._cache.get(key)
        if a is None:
            pi = OpponentDistribution(
                self.player, assess.reshape(self.game.opponent_shape(self.player))
            )
            a = best_reaction(self.game, self.player, pi)
            self._cache[key] = a
        return self._eye[a], assess


class ForecastingBestReaction(Strategy):
    """Draws an assessment from a calibrated forecaster, plays best reaction."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon

    def start(self, game, player, horizon):
        super().start(game, player, horizon)
        self.forecaster = CalibratedForecaster(game.num_opponent_profiles(player), self.epsilon)
        self._eye = np.eye(game.num_actions(player))
        self._opp_shape = game.opponent_shape(player)
        self._reaction_cache: dict[int, int] = {}

    def mix(self, t, rng):
        k = self.forecaster.predict(rng)
        a = self._reaction_cache.get(k)
        if a is None:
            pi = OpponentDistribution(
                self.player, self.forecaster.grid[k].reshape(self._opp_shape)
            )
            a = best_reaction(self.game, self.player, pi)
            self._reaction_cache[k] = a
        return self._eye[a], self.forecaster.grid[k]

    def observe(self, t, profile):
        opp = tuple(a for j, a in enumerate(profile) if j != self.player)
        y = int(np.ravel_multi_index(opp, self._opp_shape))
        self.forecaster.observe(y)


@dataclass(frozen=True)
class Checkpoint:
    t: int
    xi: np.ndarray
    regrets: tuple[np.ndarray, ...]


@dataclass
class RunTrace:
    """Everything one engine run produced.

    ``mixes[i]`` is the (T, |A_i|) array of the mixed actions player i's
    strategy produced, ``assessment_ids[i]`` indexes the player's
    assessment dictionary (-1 where the strategy logged none).
    """

    seed: int
    shape: tuple[int, ...]
    actions: np.ndarray
    mixes: list[np.ndarray]
    assessment_ids: list[np.ndarray]
    assessment_dicts: list[list[np.ndarray]]
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    def counts(self, t: int | None = None) -> np.ndarray:
        """Integer profile counts over the first t steps."""
        if t is None:
            t = self.horizon
        c = np.zeros(self.shape, dtype=np.int64)
        np.add.at(c, tuple(self.actions[:t].T), 1)
        return c

    def empirical(self, t: int | None = None) -> JointDistribution:
        if t is None:
            t = self.horizon
        return JointDistribution(self.counts(t) / float(t))


def _player_rngs(seed: int, n: int):
    """One Philox generator per player, about to draw the block of step 1.

    A draw from an empty buffer first steps the counter, so a stream started
    at counter 1 draws step t from block t + 1 as long as every step ends by
    dropping the rest of its block (``advance(0)``).
    """
    pairs = []
    for i in range(n):
        key = np.random.SeedSequence([int(seed), i]).generate_state(2, dtype=np.uint64)
        bg = np.random.Philox(counter=[1, 0, 0, 0], key=key)
        pairs.append((bg, np.random.Generator(bg)))
    return pairs


def run_engine(
    game: Game,
    strategies,
    T: int,
    seed: int,
    checkpoints: bool = True,
) -> RunTrace:
    """Play the stage game T times; deterministic given the seed."""
    if len(strategies) != game.n:
        raise ValueError("need one strategy per player")
    if T < 1:
        raise ValueError("horizon must be >= 1")
    n = game.n
    for i, s in enumerate(strategies):
        s.start(game, i, T)
    rngs = _player_rngs(seed, n)

    actions = np.zeros((T, n), dtype=np.int64)
    mix_log = [np.zeros((T, game.num_actions(i))) for i in range(n)]
    ids = [np.full(T, -1, dtype=np.int64) for _ in range(n)]
    records = [ForecastRecord(game.num_opponent_profiles(i)) for i in range(n)]
    counts = np.zeros(game.shape, dtype=np.int64)
    cps: list[Checkpoint] = []

    for t in range(1, T + 1):
        profile = []
        for i, strat in enumerate(strategies):
            bg, rng = rngs[i]
            mix, assess = strat.mix(t, rng)
            mix_log[i][t - 1] = mix
            a = int(np.searchsorted(np.cumsum(mix), rng.random(), side="right"))
            profile.append(min(a, mix.size - 1))
            bg.advance(0)
            if assess is not None:
                ids[i][t - 1] = records[i].intern(assess)
        profile = tuple(profile)
        actions[t - 1] = profile
        counts[profile] += 1
        for i, strat in enumerate(strategies):
            strat.observe(t, profile)
        if checkpoints and (t & (t - 1) == 0 or t == T):
            xi = counts / float(t)
            regs = tuple(regret_matrix_from_counts(game, i, counts, t) for i in range(n))
            cps.append(Checkpoint(t, xi, regs))

    return RunTrace(
        seed=int(seed),
        shape=game.shape,
        actions=actions,
        mixes=mix_log,
        assessment_ids=ids,
        assessment_dicts=[rec.dictionary for rec in records],
        checkpoints=cps,
    )


def regret_matrix_from_counts(
    game: Game, i: int, counts: np.ndarray, t: int
) -> np.ndarray:
    """CPT regret matrix of player i from integer profile counts at step t.

    Entry (a, d) scales the regret functional of swapping a for d, under
    the empirical conditional given a, by the empirical frequency of a: the
    CPT value of d's outcomes minus that of a's, each action valued once
    per played a.  Rows of never-played actions are zero.
    """
    slabs = player_rows(counts, i)
    outcomes = player_rows(game.payoffs[i], i)
    out = np.zeros((len(slabs), len(slabs)))
    for a, (slab, c_a) in enumerate(zip(slabs, slabs.sum(axis=1))):
        if c_a == 0:
            continue
        v = row_values(slab / float(c_a), outcomes, game.prefs[i])
        out[a] = (c_a / float(t)) * (v - v[a])
    return out


def cpt_regret_matrix(game: Game, i: int, trace: RunTrace, t: int) -> np.ndarray:
    """CPT regret matrix of player i after the first t steps of a trace."""
    if not 1 <= t <= trace.horizon:
        raise ValueError("t must lie in [1, horizon]")
    return regret_matrix_from_counts(game, i, trace.counts(t), t)


def assessment_record(trace: RunTrace, player: int) -> ForecastRecord:
    """Forecast record of one player's logged assessments.

    Outcomes are the opponents' joint actions (flat indices); steps without
    a logged assessment are skipped.
    """
    opp_cols = [j for j in range(len(trace.shape)) if j != player]
    opp_shape = tuple(trace.shape[j] for j in opp_cols)
    rec = ForecastRecord(int(np.prod(opp_shape)))
    remap = [rec.intern(v) for v in trace.assessment_dicts[player]]
    ids = trace.assessment_ids[player]
    logged = ids >= 0
    flat = np.ravel_multi_index(tuple(trace.actions[logged, j] for j in opp_cols), opp_shape)
    for k, y in zip(ids[logged].tolist(), flat.tolist()):
        rec.append(remap[k], y)
    return rec


def max_calibration_score(trace: RunTrace, player: int) -> float:
    """Largest per-outcome calibration score of a player's assessments."""
    rec = assessment_record(trace, player)
    if len(rec) == 0:
        return 0.0
    return float(calibration_score(rec).max())
