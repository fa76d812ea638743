"""Acceptance criteria, one test per criterion with its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives
one pass/fail line per criterion, and each test also prints its measured
numbers (visible with ``-s`` or on failure).
"""

import time

import numpy as np
import pytest

from cpt_games.calibration import CalibratedForecaster, ForecastRecord, calibration_score
from cpt_games.cpt import Lottery, cpt_value, evaluate_weight, eut_preferences, prelec_weighting
from cpt_games.engine import FixedMixStrategy, cpt_regret_matrix, run_engine
from cpt_games.equilibrium import (
    check_correlated_eq,
    check_mediated_eq,
    hull_membership,
)
from cpt_games.games import JointDistribution, OpponentDistribution
from cpt_games.harness import canonical_replay_instance, random_distribution, random_game
from cpt_games.mediated import identity_mediated_game, obedient_profile
from cpt_games.replay import construct_calibrated_replay
from cpt_games.scripted import (
    EVEN_MIX,
    ODD_MIX,
    UNIFORM_MIX,
    counterexample_game,
    cycle_average_distribution,
    even_cycle_distribution,
    odd_cycle_distribution,
    probe_strategy_family,
    regret_tail_probe,
    scripted_cycle_run,
)
from cpt_games.equilibrium import best_reaction

from conftest import pure_nash_profiles


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_constants():
    t0 = time.perf_counter()
    w_half = evaluate_weight(prelec_weighting(0.5), 0.5)
    beta = 1.0 / w_half
    elapsed = time.perf_counter() - t0
    ok = abs(w_half - 0.435) <= 5e-4 and abs(beta - 2.299) <= 2e-3 and elapsed < 1e-3
    report(1, ok, f"w(0.5)={w_half:.6f} beta={beta:.6f} time={elapsed*1e3:.3f}ms")


def test_criterion_02_cpt_values():
    game = counterexample_game()
    prefs = game.prefs[0]
    beta = game.payoffs[0, 0, 0] / 2.0
    top = [2 * beta, beta + 1.0, 0.0, 1.0]
    t0 = time.perf_counter()
    values = {
        "odd_top": cpt_value(Lottery(ODD_MIX, top), prefs),
        "even_top": cpt_value(Lottery(EVEN_MIX, top), prefs),
        "odd_bottom": cpt_value(Lottery(ODD_MIX, [1.99] * 4), prefs),
        "even_bottom": cpt_value(Lottery(EVEN_MIX, [1.99] * 4), prefs),
        "unif_bottom": cpt_value(Lottery(UNIFORM_MIX, [1.99] * 4), prefs),
        "unif_top": cpt_value(Lottery(UNIFORM_MIX, top), prefs),
    }
    elapsed = time.perf_counter() - t0
    expected = {
        "odd_top": 2.0,
        "even_top": 2.0,
        "odd_bottom": 1.99,
        "even_bottom": 1.99,
        "unif_bottom": 1.99,
        "unif_top": 1.985,
    }
    ok = all(abs(values[k] - expected[k]) <= 2e-3 for k in expected) and elapsed < 1e-2
    report(2, ok, " ".join(f"{k}={v:.4f}" for k, v in values.items()))


def test_criterion_03_best_reactions():
    game = counterexample_game()
    reactions = [
        best_reaction(game, 0, OpponentDistribution(0, ODD_MIX)),
        best_reaction(game, 0, OpponentDistribution(0, EVEN_MIX)),
        best_reaction(game, 0, OpponentDistribution(0, UNIFORM_MIX)),
    ]
    ok = reactions == [0, 0, 1]
    report(3, ok, f"reactions={reactions} (want [0, 0, 1])")


def test_criterion_04_equilibrium_verdicts():
    game = counterexample_game()
    t0 = time.perf_counter()
    c_odd = check_correlated_eq(game, JointDistribution(odd_cycle_distribution()))
    c_even = check_correlated_eq(game, JointDistribution(even_cycle_distribution()))
    c_star = check_correlated_eq(game, JointDistribution(cycle_average_distribution()))
    d_star = check_mediated_eq(
        game, JointDistribution(cycle_average_distribution()), resolution=8
    )
    hull = hull_membership(OpponentDistribution(0, UNIFORM_MIX), np.array([ODD_MIX, EVEN_MIX]))
    elapsed = time.perf_counter() - t0
    ok = (
        c_odd.member
        and c_even.member
        and not c_star.member
        and abs(-c_star.margin - 0.005) <= 3e-3
        and c_star.witness
        == {"kind": "violation", "player": 0, "action": 0, "deviation": 1}
        and d_star.member
        and hull.member
        and np.allclose(hull.witness["theta"], [0.5, 0.5], atol=1e-9)
        and elapsed < 1.0
    )
    report(
        4,
        ok,
        f"violation={-c_star.margin:.5f} witness={c_star.witness['player'], c_star.witness['action'], c_star.witness['deviation']} "
        f"mediated={d_star.member} theta={np.round(hull.witness['theta'], 3).tolist()} time={elapsed:.2f}s",
    )


def test_criterion_05_eut_regret_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
        game = random_game(rng, sizes, eut=True)
        strategies = [FixedMixStrategy(rng.dirichlet(np.ones(s))) for s in sizes]
        trace = run_engine(game, strategies, 500, int(rng.integers(1 << 30)), checkpoints=False)
        t = 500
        actions = trace.actions
        for i in range(n):
            K = cpt_regret_matrix(game, i, trace, t)
            for a in range(sizes[i]):
                rows = actions[:, i] == a
                for d in range(sizes[i]):
                    if d == a:
                        continue
                    dev = actions[rows].copy()
                    dev[:, i] = d
                    direct = (
                        game.payoffs[i][tuple(dev.T)].sum()
                        - game.payoffs[i][tuple(actions[rows].T)].sum()
                    ) / t
                    worst = max(worst, abs(K[a, d] - direct))
    ok = worst <= 1e-12
    report(5, ok, f"max |K - direct| = {worst:.2e} over 100 traces")


def test_criterion_06_theorem_desk_scale():
    t0 = time.perf_counter()
    trace, rep = scripted_cycle_run("2p", 10_000, resolution=8, tol=1e-3)
    elapsed = time.perf_counter() - t0
    scores = rep["calibration_scores"]
    ok = (
        max(scores) <= 0.01
        and rep["correlated_margin"] <= -0.003
        and rep["mediated_verdict"] == "member"
        and elapsed < 30.0
    )
    report(
        6,
        ok,
        f"scores={np.round(scores, 4).tolist()} c_margin={rep['correlated_margin']:.5f} "
        f"mediated={rep['mediated_verdict']} time={elapsed:.1f}s",
    )


def test_criterion_07_three_player_limit():
    t0 = time.perf_counter()
    trace, rep = scripted_cycle_run("3p", 10_000)
    elapsed = time.perf_counter() - t0
    target = np.zeros((2, 4, 4))
    for c in range(4):
        target[0, c, c] = 0.25
    dist = float(np.abs(trace.empirical().weights - target).max())
    ok = dist <= 1e-3 and elapsed < 60.0
    report(7, ok, f"sup-distance={dist:.2e} time={elapsed:.1f}s")


def _forecaster_score(nature: str, t_max: int, seed: int, epsilon: float) -> float:
    rng = np.random.default_rng(seed)
    fc = CalibratedForecaster(2, epsilon)
    rec = ForecastRecord(2)
    ids = [rec.intern(fc.grid[k]) for k in range(fc.grid.shape[0])]
    last_mode = 0
    for _ in range(t_max):
        k = fc.predict(rng.random())
        if nature == "iid":
            y = int(rng.random() < 0.7)
        elif nature == "constant":
            y = 0
        else:  # flip against the previous forecast's mode
            y = 1 - last_mode
        last_mode = int(np.argmax(fc.grid[k]))
        fc.observe(y)
        rec.append(ids[k], y)
    return float(calibration_score(rec).max())


def test_criterion_08_calibrated_forecaster():
    epsilon = 0.1
    bound = 2 * epsilon + 0.05
    t0 = time.perf_counter()
    rates = {}
    for nature in ("iid", "constant", "flip"):
        scores = [_forecaster_score(nature, 100_000, 800 + s, epsilon) for s in range(20)]
        rates[nature] = float(np.mean([s <= bound for s in scores]))
    elapsed = time.perf_counter() - t0
    ok = all(r >= 0.9 for r in rates.values()) and elapsed < 300.0
    report(8, ok, f"pass-rates={rates} bound={bound} time={elapsed:.0f}s")


def test_criterion_09_no_no_regret_witness():
    t0 = time.perf_counter()
    freqs = {}
    for fam in ("always-top", "always-bottom", "calibrated"):
        out = regret_tail_probe(
            probe_strategy_family(fam), T_block=5, k=2, n_runs=200, seed=909,
            eps_tilde=0.004,
        )
        freqs[fam] = out["frequency"]
    elapsed = time.perf_counter() - t0
    ok = all(f > 0.1 for f in freqs.values()) and elapsed < 300.0
    report(9, ok, f"frequencies={freqs} time={elapsed:.0f}s")


def test_criterion_10_two_by_two_collapse():
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    agree = 0
    total = 0
    for _ in range(50):
        game = random_game(rng, (2, 2))
        cache: dict = {}
        for _ in range(200):
            mu = random_distribution(rng, (2, 2))
            c = check_correlated_eq(game, mu, tol=1e-6)
            d = check_mediated_eq(game, mu, resolution=24, tol=1e-6, region_cache=cache)
            agree += int(c.member == d.member)
            total += 1
    elapsed = time.perf_counter() - t0
    rate = agree / total
    ok = rate == 1.0 and elapsed < 300.0
    report(10, ok, f"agreement={rate:.4f} over {total} checks time={elapsed:.0f}s")


def test_criterion_11_calibrated_replay():
    t0 = time.perf_counter()
    game, mu, mg, sigma, repair = canonical_replay_instance()
    scripts = construct_calibrated_replay(mg, sigma, 4000, repair_points=repair)
    counts = np.zeros(game.shape)
    np.add.at(counts, tuple(scripts.actions.T), 1)
    dist = float(np.abs(counts / 4000 - mu.weights).max())
    scores = scripts.report["calibration_scores"]
    elapsed = time.perf_counter() - t0
    ok = max(scores) <= 0.01 and dist <= 0.01 and elapsed < 30.0
    report(
        11, ok, f"scores={np.round(scores, 5).tolist()} sup-dist={dist:.2e} time={elapsed:.1f}s"
    )


def _invariant_lottery_suites(rng) -> dict:
    from cpt_games.cpt import CptPreferences, identity_value, piecewise_power_value

    fails = {"permutation": 0, "merge": 0, "zero_prob": 0, "monotonicity": 0, "eut": 0}
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        p = rng.dirichlet(np.ones(k))
        z = rng.normal(scale=10.0, size=k)
        if rng.random() < 0.5:
            value = identity_value(float(rng.normal()))
        else:
            value = piecewise_power_value(
                float(rng.normal()), rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0),
                rng.uniform(1.0, 2.5),
            )
        prefs = CptPreferences(
            value,
            prelec_weighting(rng.uniform(0.35, 1.6)),
            prelec_weighting(rng.uniform(0.35, 1.6)),
        )
        lot = Lottery(p, z)
        v = cpt_value(lot, prefs)
        perm = rng.permutation(k)
        if abs(cpt_value(Lottery(p[perm], z[perm]), prefs) - v) > 1e-12:
            fails["permutation"] += 1
        half = p[0] / 2.0
        doubled = Lottery(np.r_[half, half, p[1:]], np.r_[z[0], z[0], z[1:]])
        if abs(cpt_value(doubled, prefs) - v) > 1e-9:
            fails["merge"] += 1
        padded = Lottery(np.r_[p, 0.0], np.r_[z, rng.normal(scale=10)])
        if abs(cpt_value(padded, prefs) - v) > 1e-12:
            fails["zero_prob"] += 1
        j = int(rng.integers(k))
        raised = z.copy()
        raised[j] += float(rng.uniform(0.01, 5.0))
        if cpt_value(Lottery(p, raised), prefs) < v - 1e-12:
            fails["monotonicity"] += 1
        if abs(cpt_value(lot, eut_preferences()) - float(p @ z)) > 1e-12:
            fails["eut"] += 1
    return fails


def test_criterion_12_invariant_suites():
    rng = np.random.default_rng(1212)
    t0 = time.perf_counter()

    lottery_fails = _invariant_lottery_suites(rng)

    # C subset of D on 1000 instances (random distributions plus engineered
    # members via pure equilibrium point masses)
    c_subset_fails = 0
    members = 0
    instances = 0
    while instances < 1000:
        game = random_game(rng, (2, 2))
        candidates = [random_distribution(rng, (2, 2))]
        candidates += [
            JointDistribution.point_mass((2, 2), prof) for prof in pure_nash_profiles(game)
        ]
        for mu in candidates:
            if instances >= 1000:
                break
            instances += 1
            if check_correlated_eq(game, mu, tol=1e-9).member:
                members += 1
                if not check_mediated_eq(game, mu, resolution=8, tol=1e-9).member:
                    c_subset_fails += 1

    # hull certificate validity on 1000 instances
    cert_fails = 0
    for _ in range(1000):
        pts = rng.dirichlet(np.ones(3), size=int(rng.integers(1, 6)))
        target = rng.dirichlet(np.ones(3))
        cert = hull_membership(target, pts, tol=1e-6)
        theta = np.array(cert.witness["theta"])
        used = np.array(cert.witness["points"])
        bad = theta.size and (np.any(theta < 0) or abs(theta.sum() - 1.0) > 1e-9)
        if cert.member and np.abs(used.T @ theta - target).max() > 1e-6 + 1e-9:
            bad = True
        if bad:
            cert_fails += 1

    # engine determinism on 1000 instances
    det_fails = 0
    for _ in range(1000):
        sizes = (2, int(rng.integers(2, 4)))
        game = random_game(rng, sizes)
        seed = int(rng.integers(1 << 30))
        mixes = [rng.dirichlet(np.ones(s)) for s in sizes]
        t1 = run_engine(game, [FixedMixStrategy(m) for m in mixes], 40, seed, checkpoints=False)
        t2 = run_engine(game, [FixedMixStrategy(m) for m in mixes], 40, seed, checkpoints=False)
        if not np.array_equal(t1.actions, t2.actions):
            det_fails += 1

    elapsed = time.perf_counter() - t0
    ok = (
        all(v == 0 for v in lottery_fails.values())
        and c_subset_fails == 0
        and members >= 100
        and cert_fails == 0
        and det_fails == 0
        and elapsed < 120.0
    )
    report(
        12,
        ok,
        f"lottery_fails={lottery_fails} c_subset_fails={c_subset_fails} "
        f"members={members} cert_fails={cert_fails} det_fails={det_fails} time={elapsed:.0f}s",
    )
