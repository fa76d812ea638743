"""Checks of program outputs against the reference computations.

Every function returns a list of problems (empty when the output passes),
so a test can hand it a corrupted output and see the check fail.  Program
outputs are read through their public fields only: certificates
(``member``, ``margin``, ``witness``), engine traces, probe summaries,
replay scripts and JSONL trace files.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref

CORR_TOL = 1e-9  # region/inequality tolerance of the correlated and Nash checks
HULL_TOL = 1e-6  # hull tolerance of the mediated check
# Reference vs program CPT values.  The program's full-mass cumulative
# probability can come out a few ulps below one (its tie-block boundaries
# are running sums, not exactly rounded ones), and a Prelec weight with
# exponent 0.4 turns a 4e-16 shortfall into 7e-7; times values up to about
# 3 and two values per margin, that bounds the error near 5e-6.
VALUE_SLACK = 5e-6
RESIDUAL_SLACK = 1e-6  # reference (HiGHS) vs program (simplex) hull residual


def check_margin(problems, label, member, margin, ref_margin, tol):
    """Append a problem when a margin or verdict disagrees with the reference margin."""
    if abs(margin - ref_margin) > VALUE_SLACK * (1.0 + abs(ref_margin)):
        problems.append(f"{label} margin {margin!r} != reference {ref_margin!r}")
    if abs(ref_margin + tol) > VALUE_SLACK and member != (ref_margin >= -tol):
        problems.append(f"{label} verdict {member} contradicts reference margin {ref_margin!r}")


def check_query(game: ref.RefGame, weights: np.ndarray, out: dict, factors=None) -> list[str]:
    """One membership query: ``out`` holds the ``corr``, ``nash`` and ``med`` certificates."""
    problems: list[str] = []
    corr, med = out["corr"], out["med"]
    ref_corr = ref.correlated_margin(game, weights)
    check_margin(problems, "correlated", corr.member, corr.margin, ref_corr, CORR_TOL)
    if factors is not None:
        nash = out["nash"]
        check_margin(problems, "nash", nash.member, nash.margin,
                     ref.nash_margin(game, factors), CORR_TOL)
    if corr.member and not med.member:
        problems.append("correlated member is not a mediated member")
    if med.member:
        problems += check_mediated_witness(game, weights, med)
    else:
        problems += check_mediated_violation(game, weights, med)
    return problems


def _supported(game, weights):
    for i in range(game.n):
        for a in range(game.shape[i]):
            cond = ref.conditional(weights, i, a)
            if cond is not None:
                yield i, a, cond


def check_mediated_witness(game: ref.RefGame, weights: np.ndarray, med) -> list[str]:
    """Every supported conditional is a convex mix of reference region points."""
    problems = []
    if med.margin < -HULL_TOL:
        problems.append(f"mediated member with margin {med.margin!r}")
    per_action = med.witness.get("per_action")
    if per_action is None:
        return problems + ["mediated member without per-action witnesses"]
    for i, a, cond in _supported(game, weights):
        w = per_action.get(f"{i}:{a}")
        if w is None:
            problems.append(f"no witness for player {i} action {a}")
            continue
        theta = np.asarray(w["theta"], dtype=float)
        pts = np.asarray(w["points"], dtype=float).reshape(len(theta), -1)
        if theta.size == 0 or theta.min() < -1e-12 or abs(theta.sum() - 1.0) > 1e-9:
            problems.append(f"witness weights for {i}:{a} are not a probability vector")
            continue
        slack = game.region_slack(i, a, pts)
        if slack.min() < -HULL_TOL - VALUE_SLACK:
            problems.append(f"witness point for {i}:{a} outside the region ({slack.min()!r})")
        miss = float(np.abs(pts.T @ theta - cond).max())
        if miss > HULL_TOL + 1e-9:
            problems.append(f"witness mixture for {i}:{a} misses the conditional by {miss!r}")
    return problems


def check_mediated_violation(game: ref.RefGame, weights: np.ndarray, med) -> list[str]:
    """Re-solve the named conditional's hull residual over the reference grid."""
    w = med.witness
    if w.get("kind") != "violation":
        return ["mediated non-member without a violation witness"]
    i, a = int(w["player"]), int(w["action"])
    cond = ref.conditional(weights, i, a)
    if cond is None:
        return [f"violation names unsupported action {i}:{a}"]
    problems = []
    if game.region_slack(i, a, cond)[0] >= -HULL_TOL + VALUE_SLACK:
        problems.append(f"conditional {i}:{a} passes the exact region test")
    residual = ref.hull_residual_highs(game.region_points(i, a, HULL_TOL), cond)
    if residual <= HULL_TOL - RESIDUAL_SLACK:
        problems.append(f"reference residual {residual!r} makes {i}:{a} a hull member")
    if abs(residual + med.margin) > RESIDUAL_SLACK and not (
        np.isinf(residual) and np.isinf(med.margin)
    ):
        problems.append(f"mediated margin {med.margin!r} != -reference residual {residual!r}")
    return problems


def check_best_reactions(game: ref.RefGame, i: int, actions, ids, dictionary) -> list[str]:
    """Each logged action is a reference best reaction to its logged assessment."""
    if len(dictionary) == 0:
        return [f"player {i} logged no assessments"]
    if np.any(np.asarray(ids) < 0):
        return [f"player {i} has steps without an assessment"]
    vals = game.action_values(i, np.asarray(dictionary, dtype=float))
    chosen = vals[np.asarray(ids), np.asarray(actions)]
    best = vals.max(axis=1)[np.asarray(ids)]
    bad = np.flatnonzero(chosen < best - VALUE_SLACK * (1.0 + np.abs(best)))
    if bad.size:
        return [f"player {i} step {int(bad[0]) + 1} is not a best reaction"]
    return []


def check_checkpoints(game: ref.RefGame, actions: np.ndarray, checkpoints, eut=()) -> list[str]:
    """Checkpoint xi and regrets against counts and regrets recomputed from the log.

    ``eut`` lists players whose regrets must also equal direct
    payoff-difference sums.
    """
    problems = []
    for cp in checkpoints:
        t = cp.t
        counts = np.zeros(game.shape)
        np.add.at(counts, tuple(actions[:t].T), 1.0)
        if np.abs(counts / t - cp.xi).max() > 1e-15:
            problems.append(f"checkpoint {t}: xi does not match the action counts")
        for i in range(game.n):
            r = ref.regret_matrix(game, i, actions[:t])
            if np.abs(r - cp.regrets[i]).max() > VALUE_SLACK * (1.0 + np.abs(r).max()):
                problems.append(f"checkpoint {t}: regret matrix of player {i} differs")
            direct = ref.eut_regret_matrix(game, i, actions[:t]) if i in eut else cp.regrets[i]
            if np.abs(direct - cp.regrets[i]).max() > 1e-9:
                problems.append(f"checkpoint {t}: EUT regrets of player {i} are not payoff sums")
    return problems


def bar_regret(game: ref.RefGame, actions: np.ndarray, t_block: int, k: int) -> float:
    """Positive-part sum of the scheduled regret terms of the row player."""
    t1 = t_block ** (k + 1)
    r1 = ref.regret_matrix(game, 0, actions[:t1])
    r2 = ref.regret_matrix(game, 0, actions[: 2 * t1])
    return max(r1[1, 0], 0.0) + max(r2[0, 1], 0.0) + max(r2[1, 0], 0.0)


def check_probe(game: ref.RefGame, probe: dict, actions: np.ndarray, t_block: int,
                k: int) -> list[str]:
    """One-run tail probe against the bar regret of the same run's action log."""
    expect = bar_regret(game, actions, t_block, k)
    problems = []
    if abs(probe["mean_bar_regret"] - expect) > VALUE_SLACK:
        problems.append(f"bar regret {probe['mean_bar_regret']!r} != reference {expect!r}")
    if probe["frequency"] != float(expect > probe["eps_tilde"]):
        problems.append("tail-event indicator contradicts the reference bar regret")
    return problems


def read_jsonl(path) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def check_trace_file(header: dict, records: list[dict]) -> list[str]:
    """Per-step records and checkpoint xi of a JSONL trace agree."""
    shape = tuple(header["shape"])
    if len(records) != header["horizon"]:
        return [f"{len(records)} step records for horizon {header['horizon']}"]
    counts = np.zeros(shape)
    problems = []
    for t, rec in enumerate(records, start=1):
        if rec["t"] != t:
            return [f"record {t} carries step {rec['t']}"]
        counts[tuple(rec["a"])] += 1.0
        cp = rec.get("checkpoint")
        if cp is not None and np.abs(counts.ravel() / t - np.asarray(cp["xi"])).max() > 1e-15:
            problems.append(f"checkpoint {t}: xi does not match the step records")
    return problems


def trace_calibration_scores(header: dict, records: list[dict]) -> list[float]:
    """Each player's largest calibration score, from the JSONL records alone."""
    shape = tuple(header["shape"])
    acts = np.array([rec["a"] for rec in records])
    scores = []
    for i, dictionary in enumerate(header["assessment_dictionaries"]):
        ids = [rec["assessments"][i] for rec in records]
        steps = [t for t, k in enumerate(ids) if k >= 0]
        if not steps:
            scores.append(0.0)
            continue
        forecasts = [np.asarray(dictionary[ids[t]]) for t in steps]
        scores.append(max_score(forecasts, acts[steps], shape, i))
    return scores


def max_score(forecasts, actions: np.ndarray, shape, i: int) -> float:
    """Player i's largest calibration score for per-step forecasts of the opponents."""
    d = int(np.prod(shape)) // shape[i]
    return float(ref.calibration_scores(forecasts, ref.opponent_index(actions, shape, i), d).max())


def check_scores(reported, recomputed, bound: float | None = None) -> list[str]:
    """Reported calibration scores equal the recomputed ones (and stay within ``bound``)."""
    problems = []
    for i, (got, want) in enumerate(zip(reported, recomputed)):
        if abs(got - want) > 1e-12:
            problems.append(f"player {i}: calibration score {got!r} != recomputed {want!r}")
        if bound is not None and want > bound:
            problems.append(f"player {i}: calibration score {want!r} above {bound}")
    if len(reported) != len(recomputed):
        problems.append("calibration score count differs from the player count")
    return problems


def check_example1(corr_member: bool, corr_margin: float, med_member: bool) -> list[str]:
    """Example 1: the cycle average is a correlated non-member near -0.005, mediated member."""
    problems = []
    if corr_member or abs(corr_margin + 0.005) > 0.003:
        problems.append(f"cycle average: correlated member={corr_member} margin={corr_margin!r}")
    if not med_member:
        problems.append("cycle average is not a mediated member")
    return problems
