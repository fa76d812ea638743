"""Counterexample game builders, scripted runs, block adversary, probes."""

import json

import numpy as np
import pytest

from cpt_games.cpt import evaluate_weight
from cpt_games.equilibrium import mediated_hull_distance
from cpt_games.scripted import (
    EVEN_MIX,
    ODD_MIX,
    BlockSchedule,
    block_adversary,
    counterexample_game,
    counterexample_game_3p,
    probe_strategy_family,
    regret_tail_probe,
    scripted_cycle_run,
    wilson_interval,
)


class TestGameBuilders:
    def test_scale_is_computed_from_the_weighting(self, game):
        w_half = evaluate_weight(game.prefs[0].weight_gain, 0.5)
        beta = game.payoffs[0, 0, 0] / 2.0
        assert beta == pytest.approx(1.0 / w_half, abs=1e-12)
        assert w_half == pytest.approx(0.435, abs=5e-4)
        assert beta == pytest.approx(2.299, abs=2e-3)

    def test_alternate_weighting_changes_the_scale(self):
        g = counterexample_game(gamma_row=0.7)
        beta = g.payoffs[0, 0, 0] / 2.0
        w = evaluate_weight(g.prefs[0].weight_gain, 0.5)
        assert beta == pytest.approx(1.0 / w, abs=1e-12)
        assert abs(beta - 2.299) > 1e-3  # not pasted

    def test_three_player_payoffs(self):
        g = counterexample_game_3p()
        assert g.shape == (2, 4, 4)
        assert g.payoffs[0, 0, 1, 2] == -1.0  # columns split: everyone loses
        assert g.payoffs[1, 0, 1, 1] == 1.0
        assert g.payoffs[2, 1, 3, 3] == 0.0


class TestScriptedCycleRun:
    def test_single_cycle_hits_cycle_average_exactly(self, mu_star):
        trace, report = scripted_cycle_run("2p", 4)
        assert np.array_equal(trace.empirical().weights, mu_star.weights)
        assert report["correlated_verdict"] == "non-member"

    def test_2p_summary_at_4000(self):
        trace, report = scripted_cycle_run("2p", 4000, resolution=8)
        assert report["correlated_margin"] <= -0.004
        assert report["mediated_verdict"] == "member"
        assert max(report["calibration_scores"]) <= 0.01
        # checkpoint hull distances vanish after burn-in
        tail = [d for t, d in report["hull_distances"] if t >= 4]
        assert max(tail) == 0.0

    def test_3p_limit_distribution(self):
        trace, report = scripted_cycle_run("3p", 4000)
        target = np.zeros((2, 4, 4))
        for c in range(4):
            target[0, c, c] = 0.25
        assert np.abs(trace.empirical().weights - target).max() < 1e-3
        assert report["correlated_verdict"] == "non-member"
        assert report["mediated_verdict"] == "member"
        assert max(report["calibration_scores"]) <= 0.01

    @pytest.mark.parametrize("variant, T", [("2p", 4000), ("2p", 1023), ("3p", 2000)])
    def test_hull_distances_equal_per_checkpoint_recomputation(self, variant, T):
        trace, report = scripted_cycle_run(variant, T, resolution=6)
        game = counterexample_game() if variant == "2p" else counterexample_game_3p()
        want = [
            (cp.t, mediated_hull_distance(game, trace.empirical(cp.t), resolution=6))
            for cp in trace.checkpoints
        ]
        assert json.dumps(report["hull_distances"]) == json.dumps(want)  # -0.0 too

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError):
            scripted_cycle_run("2p", 2)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            scripted_cycle_run("4p", 100)


def reference_phase(T, t):
    """Block k: odd on (2 T^k, T^(k+1)], even on (T^(k+1), 2 T^(k+1)]."""
    if t <= 2:
        return "odd" if t == 1 else "even"
    k = 0
    while True:
        if 2 * T**k < t <= T ** (k + 1):
            return "odd"
        if T ** (k + 1) < t <= 2 * T ** (k + 1):
            return "even"
        k += 1


class TestBlockSchedule:
    def test_first_steps(self):
        sched = BlockSchedule(5)
        assert sched.phase(1) == "odd"
        assert sched.phase(2) == "even"

    def test_documented_boundary(self):
        assert BlockSchedule(3).phase(7) == "odd"  # 2*3 < 7 <= 9

    def test_phases_partition_all_steps(self):
        sched = BlockSchedule(3)
        for t in range(1, 2 * 3**4 + 1):
            assert sched.phase(t) in ("odd", "even")

    def test_even_fraction_bound_at_block_ends(self):
        for T in (3, 5):
            sched = BlockSchedule(T)
            for k in (0, 1, 2):
                f2 = sched.even_fraction(2 * T ** (k + 1))
                assert 0.5 <= f2 <= 0.5 + 1.0 / T

    def test_phase_matches_block_definition(self):
        for T in (3, 4, 5, 7):
            sched = BlockSchedule(T)
            assert all(sched.phase(t) == reference_phase(T, t) for t in range(1, 20000))

    @pytest.mark.parametrize("T", [3, 4, 5, 7])
    def test_mix_matches_block_definition(self, T):
        steps = np.arange(1, 20000)
        want = [ODD_MIX if reference_phase(T, t) == "odd" else EVEN_MIX for t in steps]
        assert np.array_equal(BlockSchedule(T).mix(steps), np.array(want))

    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            BlockSchedule(2)

    def test_adversary_draws_only_scheduled_columns(self):
        from cpt_games.engine import FixedMixStrategy, run_engine

        g = counterexample_game()
        trace = run_engine(g, [FixedMixStrategy([1, 0]), block_adversary(3)], 18, 4)
        sched = BlockSchedule(3)
        for t in range(1, 19):
            col = trace.actions[t - 1, 1]
            expected = (0, 2) if sched.phase(t) == "odd" else (1, 3)
            assert col in expected


class TestTailProbe:
    def test_fixed_row_families_have_positive_frequency(self):
        for fam in ("always-top", "always-bottom"):
            out = regret_tail_probe(
                probe_strategy_family(fam), 5, 2, n_runs=60, seed=101, eps_tilde=0.004
            )
            assert out["frequency"] > 0.1
            assert 0.0 <= out["wilson_low"] <= out["frequency"] <= out["wilson_high"] <= 1.0

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            regret_tail_probe(probe_strategy_family("always-top"), 10, 8, 1, 0)

    def test_rejects_no_runs(self):
        with pytest.raises(ValueError, match="n_runs"):
            regret_tail_probe(probe_strategy_family("always-top"), 5, 1, 0, 0)

    def test_deterministic_given_seed(self):
        a = regret_tail_probe(probe_strategy_family("always-top"), 5, 1, 40, 7)
        b = regret_tail_probe(probe_strategy_family("always-top"), 5, 1, 40, 7)
        assert a == b

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            probe_strategy_family("sometimes")


class TestDiagnostics:
    def test_wilson_interval_shrinks(self):
        lo1, hi1 = wilson_interval(10, 20)
        lo2, hi2 = wilson_interval(100, 200)
        assert hi2 - lo2 < hi1 - lo1
        assert lo2 <= 0.5 <= hi2
