"""Repeated-game engine: strategies, traces, and CPT regret tracking.

One run plays a stage game for T steps.  A strategy either plans or reads
history.  A planning strategy (``Strategy.plan``) ignores history: it hands
the engine the mixed actions of all T steps, and the assessments of the
opponents that produced them, before play starts; the engine samples its
actions a block of steps at a time and never calls its ``observe``.  A
history-free schedule is a function of the array of steps 1..T that
returns the (T, width) array of their rows.  Only
strategies whose ``plan`` returns None go through the step loop: at each
step they produce a mixed action (possibly after drawing an assessment),
the engine samples their actions, and they observe the full profile.

Randomness is counter-based: player i at step t draws the four 64-bit
words of the Philox block at counter t + 1 of a stream keyed by (seed, i),
``PLAN_BLOCK_STEPS`` steps at a time, and uses words 0 and 1 as uniforms
(x >> 11) * 2**-53, so traces are bit-reproducible regardless of
evaluation order and the players' draws are mutually independent.  A
planned player's action is sampled from word 0; a step-loop strategy
receives word 0 in ``mix`` and its action is sampled from word 1.

The trace logs actions, per-player assessment ids into the dictionary of
one ``ForecastRecord`` per player, and checkpoints of the empirical joint
distribution and the CPT regret matrices at powers of two.  Checkpoints are
computed from integer counts of the action log, so recomputing them from a
trace is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedForecaster, ForecastRecord, calibration_score
from .cpt import PROB_SUM_TOL, row_values
from .equilibrium import best_reaction
from .games import (
    Game,
    JointDistribution,
    OpponentDistribution,
    opponent_strides,
    player_rows,
    profile_counts,
)

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

# Steps every player's Philox blocks are drawn in at a time, so the draw
# temporaries stay bounded at any horizon.
PLAN_BLOCK_STEPS = 4096


class Strategy:
    """Behavioral interface: (game, player, history) -> mixed action.

    ``start`` resets all internal state so a strategy object can be reused
    across runs.  ``plan(T)`` returns the (T, |A_i|) mixed actions of steps
    1..T and the (T, d) assessments over opponent profiles that produced
    them (None if the strategy logs none).  A planning strategy ignores
    history, and the engine does not call its ``observe``.  The default
    ``plan`` returns None, which means the strategy needs history: the
    engine then calls ``mix(t, u)`` for the step's mixed action and
    assessment and ``observe`` to show the realized profile.  ``u`` is
    the step's uniform in [0, 1), the strategy's only randomness.
    """

    def start(self, game: Game, player: int) -> None:
        self.game = game
        self.player = player

    def plan(self, T: int) -> tuple[np.ndarray, np.ndarray | None] | None:
        return None

    def mix(self, t: int, u: float) -> tuple[np.ndarray, np.ndarray | None]:
        raise NotImplementedError("a strategy defines plan or mix")

    def observe(self, t: int, profile: tuple[int, ...]) -> None:
        pass


def _plan_rows(rows, T: int, width: int, i: int, what: str) -> np.ndarray:
    """``rows`` as a float (T, width) array, or ValueError naming player i."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (T, width):
        raise ValueError(f"player {i}'s plan has {what} of shape {rows.shape}, not {(T, width)}")
    return rows


def _require_distributions(mixes: np.ndarray, i: int, source: str) -> None:
    """ValueError naming player i unless every row of ``mixes`` is a distribution."""
    sums = mixes.sum(axis=1)  # the tests below are written so that NaN fails them
    if not ((mixes >= -PROB_SUM_TOL).all() and (abs(sums - 1.0) <= PROB_SUM_TOL).all()):
        raise ValueError(f"player {i}'s {source} has mixes that are not distributions")


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows distinct by their float64 bytes: (first step of each, step -> distinct row).

    Distinct rows are numbered in order of first appearance.
    """
    keys = np.ascontiguousarray(rows, dtype=float)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


class FixedMixStrategy(Strategy):
    """Plays one mixed action forever."""

    def __init__(self, mix):
        self._mix = np.asarray(mix, dtype=float)

    def plan(self, T):
        return np.tile(self._mix, (T, 1)), None


class MixScheduleStrategy(Strategy):
    """Plays the (T, |A_i|) mixed actions ``schedule(steps)`` of steps 1..T."""

    def __init__(self, schedule):
        self.schedule = schedule

    def plan(self, T):
        return self.schedule(np.arange(1, T + 1)), None


class ActionScriptStrategy(Strategy):
    """Plays the (T,) actions ``action_at(steps)``; can log scripted assessments."""

    def __init__(self, action_at, assessment_at=None):
        self.action_at = action_at
        self.assessment_at = assessment_at

    def plan(self, T):
        steps = np.arange(1, T + 1)
        mixes = np.eye(self.game.num_actions(self.player))[self.action_at(steps)]
        if self.assessment_at is None:
            return mixes, None
        return mixes, self.assessment_at(steps)


class AssessmentDrivenStrategy(Strategy):
    """Best-reacts to a scripted assessment of the opponents.

    ``assessment_at(steps)`` returns the (T, d) distributions over opponent
    profiles (flat, row-major over the other players) of steps 1..T.  The
    plan computes one best reaction per distinct assessment, which keeps
    long scripted runs cheap.
    """

    def __init__(self, assessment_at):
        self.assessment_at = assessment_at

    def plan(self, T):
        game, i = self.game, self.player
        d = game.num_opponent_profiles(i)
        assess = _plan_rows(self.assessment_at(np.arange(1, T + 1)), T, d, i, "assessments")
        first, inverse = _distinct_rows(assess)
        shape = game.opponent_shape(i)
        reactions = np.array(
            [best_reaction(game, i, OpponentDistribution(i, assess[s].reshape(shape)))
             for s in first],
            dtype=np.int64,
        )
        return np.eye(game.num_actions(i))[reactions[inverse]], assess


class ForecastingBestReaction(Strategy):
    """Draws an assessment from a calibrated forecaster, plays best reaction."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon

    def start(self, game, player):
        super().start(game, player)
        self.forecaster = CalibratedForecaster(game.num_opponent_profiles(player), self.epsilon)
        self._eye = np.eye(game.num_actions(player))
        self._opp_shape = game.opponent_shape(player)
        # Python ints: a per-step sum of their products beats an array product
        self._outcome_weights = opponent_strides(game.shape, player).tolist()
        self._reaction_cache: dict[int, int] = {}

    def mix(self, t, u):
        k = self.forecaster.predict(u)
        a = self._reaction_cache.get(k)
        if a is None:
            pi = OpponentDistribution(
                self.player, self.forecaster.grid[k].reshape(self._opp_shape)
            )
            a = best_reaction(self.game, self.player, pi)
            self._reaction_cache[k] = a
        return self._eye[a], self.forecaster.grid[k]

    def observe(self, t, profile):
        self.forecaster.observe(sum(map(operator.mul, profile, self._outcome_weights)))


@dataclass(frozen=True, eq=False)
class Checkpoint:
    t: int
    xi: np.ndarray
    regrets: tuple[np.ndarray, ...]


@dataclass(eq=False)
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
        """Integer profile counts over the first t steps (all steps if t is None)."""
        return profile_counts(self.shape, self.actions[:t])

    def empirical(self, t: int | None = None) -> JointDistribution:
        if t is None:
            t = self.horizon
        return JointDistribution(self.counts(t) / float(t))


def _player_streams(seed: int, n: int) -> list[np.random.Philox]:
    """One Philox stream per player, about to draw the block of step 1.

    A draw from an empty buffer first steps the counter, so a stream started
    at counter 1 reads block t + 1 as the four words of step t.
    """
    streams = []
    for i in range(n):
        key = np.random.SeedSequence([int(seed), i]).generate_state(2, dtype=np.uint64)
        streams.append(np.random.Philox(counter=[1, 0, 0, 0], key=key))
    return streams


def _checkpoints(game: Game, actions: np.ndarray) -> list[Checkpoint]:
    """Empirical joint and regret matrices at powers of two and at the horizon.

    Each is computed once per distinct reduced count vector: counts that are
    an integer multiple of earlier ones give the same rationals, hence the
    same correctly rounded xi and regrets, so a repeated state is a copy.
    """
    T = actions.shape[0]
    steps = [1 << j for j in range(T.bit_length())]
    if steps[-1] != T:
        steps.append(T)
    cps = []
    seen: dict[bytes, Checkpoint] = {}
    for t in steps:
        counts = profile_counts(game.shape, actions[:t])
        key = (counts // np.gcd.reduce(counts, axis=None)).tobytes()
        cp = seen.get(key)
        if cp is None:
            regs = tuple(regret_matrix_from_counts(game, i, counts, t) for i in range(game.n))
            cp = seen[key] = Checkpoint(t, counts / float(t), regs)
        else:
            cp = Checkpoint(t, cp.xi.copy(), tuple(r.copy() for r in cp.regrets))
        cps.append(cp)
    return cps


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
    streams = _player_streams(seed, n)
    actions = np.zeros((T, n), dtype=np.int64)
    mix_log = [None] * n
    ids = [np.full(T, -1, dtype=np.int64) for _ in range(n)]
    records = [ForecastRecord(game.num_opponent_profiles(i)) for i in range(n)]

    planned, loop = [], []
    for i, strat in enumerate(strategies):
        strat.start(game, i)
        plan = strat.plan(T)
        if plan is None:
            mix_log[i] = np.zeros((T, game.num_actions(i)))
            loop.append((i, strat))
            continue
        mixes, assess = plan
        mixes = _plan_rows(mixes, T, game.num_actions(i), i, "mixes")
        _require_distributions(mixes, i, "plan")
        mix_log[i] = mixes
        planned.append(i)
        if assess is not None:
            assess = _plan_rows(assess, T, game.num_opponent_profiles(i), i, "assessments")
            first, inverse = _distinct_rows(assess)
            distinct = [records[i].intern(assess[s]) for s in first]
            ids[i] = np.array(distinct, dtype=np.int64)[inverse]

    for s in range(0, T, PLAN_BLOCK_STEPS):
        e = min(s + PLAN_BLOCK_STEPS, T)
        raw = [bg.random_raw(4 * (e - s)).reshape(e - s, 4) for bg in streams]
        uniforms = [(x[:, :2] >> np.uint64(11)) * 2.0**-53 for x in raw]
        for i in planned:
            cum = np.cumsum(mix_log[i][s:e], axis=1)
            actions[s:e, i] = np.minimum((cum <= uniforms[i][:, :1]).sum(axis=1), cum.shape[1] - 1)
        if not loop:
            continue
        blocks = [uniforms[i].tolist() for i, _ in loop]
        for t in range(s + 1, e + 1):
            row = actions[t - 1]
            for (i, strat), block in zip(loop, blocks):
                u, v = block[t - s - 1]
                mix, assess = strat.mix(t, u)
                mix_log[i][t - 1] = mix
                a = int(np.searchsorted(np.cumsum(mix), v, side="right"))
                row[i] = min(a, mix.size - 1)
                if assess is not None:
                    ids[i][t - 1] = records[i].intern(assess)
            profile = tuple(row.tolist())
            for _, strat in loop:
                strat.observe(t, profile)
        for i, _ in loop:
            _require_distributions(mix_log[i][s:e], i, "step loop")

    return RunTrace(
        seed=int(seed),
        shape=game.shape,
        actions=actions,
        mixes=mix_log,
        assessment_ids=ids,
        assessment_dicts=[rec.dictionary for rec in records],
        checkpoints=_checkpoints(game, actions) if checkpoints else [],
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
    ids = trace.assessment_ids[player]
    logged = ids >= 0
    outcomes = trace.actions[logged] @ opponent_strides(trace.shape, player)
    d = math.prod(trace.shape) // trace.shape[player]
    return ForecastRecord.from_steps(d, trace.assessment_dicts[player], ids[logged], outcomes)


def max_calibration_score(trace: RunTrace, player: int) -> float:
    """Largest per-outcome calibration score of a player's assessments."""
    rec = assessment_record(trace, player)
    if len(rec) == 0:
        return 0.0
    return float(calibration_score(rec).max())
