"""Deterministic calibrated replay of a mediated equilibrium.

Given a mediated game with a pure strategy profile, this builds an explicit
T-step script per player: a signal sequence whose empirical law tracks the
mediator distribution (largest-deficit quota scheduling), the assessment
each player predicts on receiving her signal (the signal's induced
opponent-action distribution), and the action she plays (her pure strategy
at that signal).  By construction the assessments are calibrated and the
empirical distribution of play tracks the pushforward of the mediator.

Two different signals can induce the same assessment while prescribing
different actions; a single best-reaction rule cannot produce both.  The
repair substitutes, on geometrically growing occurrence blocks of the
colliding signal, nearby user-supplied points of the relevant acceptance
region, pairwise distinct from every other assessment in use.  Scores stay
small because the substitutes approach the original assessment; repair
points are caller-supplied because their existence rests on the region
having no isolated points, which is not checkable numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import ForecastRecord, calibration_score
from .equilibrium import DEFAULT_TOL, _region_margin
from .games import JointDistribution, OpponentDistribution
from .mediated import MediatedGame, RandomizedStrategyProfile, induced_action_distribution, signal_assessment

__all__ = [
    "AssessmentCollisionError",
    "ReplayScripts",
    "construct_calibrated_replay",
    "repair_block_starts",
]


class AssessmentCollisionError(RuntimeError):
    """Two signals share an assessment but prescribe different actions."""

    def __init__(self, player: int, signal_a: int, signal_b: int):
        self.player = player
        self.signal_a = signal_a
        self.signal_b = signal_b
        super().__init__(
            f"player {player}: signals {signal_a} and {signal_b} induce the same "
            "assessment but different actions; supply repair points"
        )


def repair_block_starts(occurrences: int) -> list[int]:
    """Occurrence indices starting each perturbation block (1-based).

    Block boundaries grow geometrically: each start is the smallest integer
    exceeding the block index times the previous start.
    """
    starts = [1]
    l = 1
    while starts[-1] <= occurrences:
        l += 1
        starts.append(l * starts[-1] + 1)
    return starts


@dataclass
class ReplayScripts:
    """Per-player deterministic scripts plus the replay report."""

    signals: np.ndarray  # (T, n) signal indices
    actions: np.ndarray  # (T, n) action indices
    assessments: list[list[np.ndarray]]  # per player, per step
    report: dict = field(default_factory=dict)


def _quota_schedule(psi: JointDistribution, T: int) -> np.ndarray:
    """Deterministic signal-profile sequence tracking ``psi``.

    Greedy largest-deficit scheduling; the empirical law after T steps is
    within |B|/T of the mediator distribution in the sup norm.
    """
    weights = psi.flat()
    support = np.flatnonzero(weights > 0.0)
    w = weights[support].tolist()
    counts = [0.0] * len(w)
    picks = []
    for t in range(1, T + 1):
        # the first largest deficit t * w - counts, as np.argmax would pick it
        best, pick = -math.inf, 0
        for k, (w_k, c_k) in enumerate(zip(w, counts)):
            deficit = t * w_k - c_k
            if deficit > best:
                best, pick = deficit, k
        counts[pick] += 1.0
        picks.append(pick)
    return support[picks]


def _assessment_key(vec: np.ndarray) -> bytes:
    return np.round(np.asarray(vec, dtype=float), 12).tobytes()


def construct_calibrated_replay(
    mg: MediatedGame,
    sigma: RandomizedStrategyProfile,
    T: int,
    repair_points: dict[tuple[int, int], list] | None = None,
) -> ReplayScripts:
    """Emit calibrated assessment and action scripts realizing the mediator.

    ``repair_points[(player, signal)]`` lists opponent-mix vectors used to
    perturb that signal's assessment on successive occurrence blocks; they
    must lie in the acceptance region of the signal's action and be
    distinct from every other assessment.  A signal needs repair points
    only when the lowest signal with the same assessment plays another
    action; such a collision without repair points raises
    :class:`AssessmentCollisionError` naming the two signals, and points
    for a signal that needs none raise ``ValueError`` naming each such
    (player, signal).
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if not sigma.is_pure():
        raise ValueError("calibrated replay needs a pure strategy profile")
    game = mg.base
    n = game.n
    repair_points = repair_points or {}

    # supported signals and their assessments
    assess: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    for i in range(n):
        psi_i = mg.signal_marginal(i)
        for b in range(len(mg.signals[i])):
            if psi_i[b] > 0.0:
                assess[i][b] = signal_assessment(mg, sigma, i, b).flat()
    used_keys = {_assessment_key(vec) for a_i in assess for vec in a_i.values()}

    # one record per supported signal, in ascending order: its action and the
    # vectors it shows; the signals shown repair points are ``repaired``
    per_signal: list[dict[int, tuple[int, list[np.ndarray]]]] = [dict() for _ in range(n)]
    repaired: set[tuple[int, int]] = set()
    for i in range(n):
        lowest: dict[bytes, tuple[int, int]] = {}
        for b, vec in assess[i].items():
            a = sigma.pure_action(i, b)
            first, first_action = lowest.setdefault(_assessment_key(vec), (b, a))
            if a == first_action:
                per_signal[i][b] = (a, [vec])
                continue
            pts = repair_points.get((i, b))
            if not pts:
                raise AssessmentCollisionError(i, first, b)
            validated = []
            for p_idx, p in enumerate(pts):
                pvec = np.asarray(p, dtype=float).ravel()
                pkey = _assessment_key(pvec)
                if pkey in used_keys:
                    raise ValueError(
                        f"repair point {p_idx} for player {i} signal {b} "
                        "coincides with an assessment already in use"
                    )
                pi = OpponentDistribution(i, pvec.reshape(game.opponent_shape(i)))
                if _region_margin(game, i, a, pi) < -DEFAULT_TOL:
                    raise ValueError(
                        f"repair point {p_idx} for player {i} signal {b} "
                        "is outside the acceptance region of its action"
                    )
                used_keys.add(pkey)
                validated.append(pvec)
            per_signal[i][b] = (a, validated)
            repaired.add((i, b))
    unused = [key for key in repair_points if key not in repaired]
    if unused:
        raise ValueError(
            "repair points for (player, signal) "
            + ", ".join(map(str, unused))
            + " are unused: those signals need no repair"
        )

    schedule_flat = _quota_schedule(mg.mediator, T)
    signal_shape = mg.signal_shape
    profiles = np.array(np.unravel_index(schedule_flat, signal_shape)).T  # (T, n)

    # per supported signal: its steps, its action, and the index into the
    # player's table of shown vectors; occurrence k shows the point of its
    # block, or the last point, so a lone vector shows at every step
    actions = np.zeros((T, n), dtype=np.int64)
    tables: list[list[np.ndarray]] = [[] for _ in range(n)]
    shown = np.empty((n, T), dtype=np.intp)
    for i in range(n):
        for b, (a, pts) in per_signal[i].items():
            steps = np.flatnonzero(profiles[:, i] == b)
            actions[steps, i] = a
            occurrence = np.arange(1, steps.size + 1)
            block = np.searchsorted(repair_block_starts(steps.size), occurrence, side="right")
            shown[i, steps] = len(tables[i]) + np.minimum(block, len(pts)) - 1
            tables[i].extend(pts)
    assessments = [[table[k] for k in row] for table, row in zip(tables, shown.tolist())]

    # report: calibration scores, empirical deviations
    eta = induced_action_distribution(mg, sigma)
    counts = np.zeros(game.shape, dtype=np.int64)
    np.add.at(counts, tuple(actions.T), 1)
    xi = counts / float(T)
    scores = []
    for i in range(n):
        opp_shape = game.opponent_shape(i)
        opp_cols = [j for j in range(n) if j != i]
        flat = np.ravel_multi_index(tuple(actions[:, j] for j in opp_cols), opp_shape)
        rec = ForecastRecord.from_steps(int(np.prod(opp_shape)), tables[i], shown[i], flat)
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
        "collisions_repaired": len(repaired),
    }
    return ReplayScripts(
        signals=profiles, actions=actions, assessments=assessments, report=report
    )
