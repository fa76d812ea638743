"""Canonical counterexample game and its scripted calibrated-play runs.

The two-row game pits a probability-weighting row player against an
indifferent column player with four actions.  The top-row payoff spread is
scaled by ``beta = 1 / w(0.5)`` (computed from the row player's Prelec
coefficient, never pasted in), which makes the row player strictly prefer
the top row against either of two half-half column mixes but the bottom
row against their average.  Cyclic column play with alternating half-half
assessments is then calibrated while the empirical distribution converges
to a point outside the correlated-equilibrium set; it stays inside the
mediated set.

The three-player variant gives the column players a coordination payoff so
that their cyclic play is itself a strict best reaction to calibrated
point-mass assessments.

Also here: the block-switching adversary used to defeat no-regret play
and the Monte-Carlo tail probe for its regret lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpt import CptPreferences, identity_value, prelec_weighting
from .engine import (
    ActionScriptStrategy,
    AssessmentDrivenStrategy,
    FixedMixStrategy,
    ForecastingBestReaction,
    MixScheduleStrategy,
    RunTrace,
    Strategy,
    max_calibration_score,
    regret_matrix_from_counts,
    run_engine,
)
from .equilibrium import DEFAULT_HULL_TOL, _json_margin, check_correlated_eq, check_mediated_eq
from .games import Game, JointDistribution

__all__ = [
    "ODD_MIX",
    "EVEN_MIX",
    "UNIFORM_MIX",
    "counterexample_game",
    "counterexample_game_3p",
    "odd_cycle_distribution",
    "even_cycle_distribution",
    "cycle_average_distribution",
    "scripted_cycle_run",
    "BlockSchedule",
    "block_adversary",
    "regret_tail_probe",
    "probe_strategy_family",
    "wilson_interval",
]

ODD_MIX = np.array([0.5, 0.0, 0.5, 0.0])
EVEN_MIX = np.array([0.0, 0.5, 0.0, 0.5])
UNIFORM_MIX = np.array([0.25, 0.25, 0.25, 0.25])

COLUMN_LABELS = ("I", "II", "III", "IV")

MAX_PROBE_HORIZON = 10_000_000  # longest tail-probe run, 2 * T_block ** (k + 1) steps


def counterexample_game(gamma_row: float = 0.5) -> Game:
    """Two-player 2x4 game with a nonconvex correlated-equilibrium set."""
    w = prelec_weighting(gamma_row)
    beta = 1.0 / w(0.5)
    payoffs = np.zeros((2, 2, 4))
    payoffs[0, 0] = [2.0 * beta, beta + 1.0, 0.0, 1.0]
    payoffs[0, 1] = 1.99
    payoffs[1, 0] = 1.0
    payoffs[1, 1] = 0.0
    col = prelec_weighting(1.0)  # the column player weighs like an expected-value maximizer
    prefs = (
        CptPreferences(identity_value(0.0), w, w),
        CptPreferences(identity_value(0.0), col, col),
    )
    return Game((("0", "1"), COLUMN_LABELS), payoffs, prefs)


def counterexample_game_3p() -> Game:
    """Three-player variant: the two column players must coordinate.

    All payoffs are -1 when players 2 and 3 split; when they agree the
    payoffs follow the two-player table with their common action as the
    column.
    """
    two = counterexample_game()
    payoffs = np.full((3, 2, 4, 4), -1.0)
    for a1 in range(2):
        for c in range(4):
            payoffs[0, a1, c, c] = two.payoffs[0, a1, c]
            payoffs[1, a1, c, c] = two.payoffs[1, a1, c]
            payoffs[2, a1, c, c] = two.payoffs[1, a1, c]
    prefs = (two.prefs[0], two.prefs[1], two.prefs[1])
    return Game((("0", "1"), COLUMN_LABELS, COLUMN_LABELS), payoffs, prefs)


def _row0_joint(column_weights: np.ndarray) -> np.ndarray:
    w = np.zeros((2, 4))
    w[0] = column_weights
    return w


def odd_cycle_distribution() -> np.ndarray:
    """Empirical joint of top-row play against columns I and III."""
    return _row0_joint(ODD_MIX)


def even_cycle_distribution() -> np.ndarray:
    return _row0_joint(EVEN_MIX)


def cycle_average_distribution() -> np.ndarray:
    """Mean of the odd and even cycle distributions; outside the correlated set."""
    return _row0_joint(UNIFORM_MIX)


def _alternating_assessment_2p(t: np.ndarray) -> np.ndarray:
    return np.array([EVEN_MIX, ODD_MIX])[t % 2]


def _alternating_assessment_3p(t: np.ndarray) -> np.ndarray:
    return np.array([np.diag(EVEN_MIX).ravel(), np.diag(ODD_MIX).ravel()])[t % 2]


def _column_assessment_3p(t: np.ndarray) -> np.ndarray:
    """Point mass on (row 0, the other column player's cyclic action)."""
    return np.eye(8)[(t - 1) % 4]


def scripted_cycle_run(
    variant: str,
    T: int,
    resolution: int | None = None,
    tol: float = DEFAULT_HULL_TOL,
    seed: int = 0,
) -> tuple[RunTrace, dict]:
    """Run the calibrated cyclic-play script and summarize it.

    ``variant`` is "2p" or "3p".  The report carries per-player calibration
    scores, the correlated-equilibrium margin of the final empirical
    distribution, its mediated verdict, and the sampled-hull distance at
    every checkpoint.
    """
    if T < 4:
        raise ValueError("need at least one full cycle")
    if variant == "2p":
        game = counterexample_game()
        strategies: list[Strategy] = [
            AssessmentDrivenStrategy(_alternating_assessment_2p),
            ActionScriptStrategy(
                lambda t: (t - 1) % 4,
                assessment_at=lambda t: np.tile([1.0, 0.0], (t.size, 1)),
            ),
        ]
    elif variant == "3p":
        game = counterexample_game_3p()
        strategies = [
            AssessmentDrivenStrategy(_alternating_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
            AssessmentDrivenStrategy(_column_assessment_3p),
        ]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    trace = run_engine(game, strategies, T, seed)
    xi = trace.empirical()
    scores = [max_calibration_score(trace, i) for i in range(game.n)]
    corr = check_correlated_eq(game, xi)
    # proportional checkpoints share their xi bit for bit: one mediated check
    # each; the horizon checkpoint's xi is the final empirical distribution
    by_xi: dict = {}
    for cp in trace.checkpoints:
        key = cp.xi.tobytes()
        if key not in by_xi:
            by_xi[key] = check_mediated_eq(
                game, JointDistribution(cp.xi), resolution=resolution, tol=tol
            )
    med = by_xi[trace.checkpoints[-1].xi.tobytes()]
    # 0.0 first: a self-certified conditional's -margin is -0.0
    distances = [
        (cp.t, _json_margin(max(0.0, -by_xi[cp.xi.tobytes()].margin))) for cp in trace.checkpoints
    ]
    report = {
        "variant": variant,
        "horizon": T,
        "calibration_scores": scores,
        "correlated_verdict": corr.verdict,
        "correlated_margin": _json_margin(corr.margin),
        "correlated_witness": corr.witness,
        "mediated_verdict": med.verdict,
        "mediated_margin": _json_margin(med.margin),
        "hull_distances": distances,
        "grid_resolution": resolution if resolution is not None else "default",
    }
    return trace, report


# ---------------------------------------------------------------------------
# block-switching adversary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSchedule:
    """Geometric block plan over the odd/even column mixes.

    Step 1 plays the odd mix and step 2 the even mix; thereafter block k
    plays odd on (2 T^k, T^(k+1)] and even on (T^(k+1), 2 T^(k+1)].
    """

    T: int

    def __post_init__(self) -> None:
        if self.T <= 2:
            raise ValueError("block base must be an integer > 2")

    def _odd(self, steps) -> np.ndarray:
        """Whether each step plays the odd mix: the phase rule of every method."""
        steps = np.asarray(steps)
        if (steps < 1).any():
            raise ValueError("steps start at 1")
        odd = steps == 1
        low, top = 2, self.T  # 2 T^k and T^(k+1) of block k
        while low < steps.max(initial=0):
            odd |= (low < steps) & (steps <= top)
            low, top = 2 * top, top * self.T
        return odd

    def phase(self, t: int) -> str:
        return "odd" if self._odd(t) else "even"

    def mix(self, steps: np.ndarray) -> np.ndarray:
        """(T, 4) column mixes of the steps."""
        return np.where(self._odd(steps)[:, None], ODD_MIX, EVEN_MIX)

    def even_fraction(self, t: int) -> float:
        """Fraction of steps up to t on the even mix."""
        return int(np.count_nonzero(~self._odd(np.arange(1, t + 1)))) / t


def block_adversary(T: int) -> MixScheduleStrategy:
    """Column strategy drawing i.i.d. inside the block schedule's phases."""
    sched = BlockSchedule(T)
    return MixScheduleStrategy(sched.mix)


def _bar_regret(game: Game, trace: RunTrace, T_block: int, k: int) -> float:
    """Positive-part sum of the three scheduled regret terms for the row player."""
    t1 = T_block ** (k + 1)
    t2 = 2 * t1
    r1 = regret_matrix_from_counts(game, 0, trace.counts(t1), t1)
    r2 = regret_matrix_from_counts(game, 0, trace.counts(t2), t2)
    return max(r1[1, 0], 0.0) + max(r2[0, 1], 0.0) + max(r2[1, 0], 0.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def regret_tail_probe(
    row_strategy_factory,
    T_block: int,
    k: int,
    n_runs: int,
    seed: int,
    eps_tilde: float = 0.004,
) -> dict:
    """Monte-Carlo frequency of a large block-regret tail event.

    Runs the counterexample game with the block-switching adversary as the
    column player and ``row_strategy_factory()`` as the row player, over
    ``n_runs`` independent seeds, and estimates the probability that the
    positive-part sum of the scheduled regret terms exceeds ``eps_tilde``.
    The probe tests named strategy families only; no finite experiment can
    quantify over all strategies, and the report says so.
    """
    if n_runs < 1:
        raise ValueError("the tail probe needs n_runs >= 1")
    horizon = 2 * T_block ** (k + 1)
    if horizon > MAX_PROBE_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the bound {MAX_PROBE_HORIZON}")
    game = counterexample_game()

    values = np.empty(n_runs)
    for r in range(n_runs):
        strategies = [row_strategy_factory(), block_adversary(T_block)]
        trace = run_engine(game, strategies, horizon, seed + r, checkpoints=False)
        values[r] = _bar_regret(game, trace, T_block, k)
    hits = int((values > eps_tilde).sum())
    lo, hi = wilson_interval(hits, n_runs)
    return {
        "horizon": horizon,
        "block_base": T_block,
        "block_index": k,
        "eps_tilde": eps_tilde,
        "runs": n_runs,
        "frequency": hits / n_runs,
        "wilson_low": lo,
        "wilson_high": hi,
        "mean_bar_regret": float(values.mean()),
        "note": (
            "tests the named row-strategy family only; the universal "
            "no-regret impossibility is not desk-verifiable"
        ),
    }


def probe_strategy_family(name: str, epsilon: float = 0.1):
    """Row-player strategy factories exercised by the tail probe."""
    if name == "always-top":
        return lambda: FixedMixStrategy([1.0, 0.0])
    if name == "always-bottom":
        return lambda: FixedMixStrategy([0.0, 1.0])
    if name == "calibrated":
        return lambda: ForecastingBestReaction(epsilon)
    raise ValueError(f"unknown strategy family {name!r}")
