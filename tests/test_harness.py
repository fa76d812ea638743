"""Scenario catalog, run configs, and generators."""

import inspect
import re

import numpy as np
import pytest

from cpt_games import harness
from cpt_games.cpt import eut_preferences
from cpt_games.harness import (
    RunConfig,
    SCENARIOS,
    canonical_replay_instance,
    random_distribution,
    random_game,
    run_scenario,
)


class TestRunConfig:
    def test_roundtrip(self):
        cfg = RunConfig(scenario="example2", T=100, seed=3, extras={"runs": 5})
        doc = cfg.to_dict()
        assert doc["schema_version"] == 1
        assert RunConfig.from_dict(doc) == cfg

    def test_defaults_filled(self):
        cfg = RunConfig.from_dict({"scenario": "random"})
        assert cfg.T == 4000 and cfg.seed == 0

    @pytest.mark.parametrize(
        "scenario, extras, bad",
        [
            ("random", {"size": [2, 2, 2]}, "size"),
            ("example2", {"runs": 3, "T_blocks": 3}, "T_blocks"),
            ("example1-2p", {"runs": 3}, "runs"),
            ("replay-canonical", {"T_block": 3}, "T_block"),
        ],
    )
    def test_unknown_extras_key_rejected(self, scenario, extras, bad):
        with pytest.raises(ValueError, match=f"^scenario '{scenario}' reads no extras entry '{bad}'$"):
            RunConfig.from_dict({"scenario": scenario, "extras": extras})

    def test_every_extras_key_read_is_declared(self):
        # each scenario accepts exactly the keys it reads with ex.get(...)
        source = inspect.getsource(harness)
        read = set(re.findall(r'ex\.get\("(\w+)"', source))
        declared = {k for keys in harness._EXTRAS_TYPES.values() for k in keys}
        assert read == declared


class TestGenerators:
    def test_random_game_shapes_and_prefs(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, (2, 3, 2))
        assert g.shape == (2, 3, 2)
        assert g.payoffs.shape == (3, 2, 3, 2)
        assert not any(p == eut_preferences() for p in g.prefs)
        g2 = random_game(rng, (2, 2), eut=True)
        assert all(p == eut_preferences() for p in g2.prefs)

    def test_random_distribution_valid(self):
        rng = np.random.default_rng(2)
        mu = random_distribution(rng, (2, 4))
        assert mu.shape == (2, 4)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_generation_deterministic_per_seed(self):
        a = random_game(np.random.default_rng(9), (2, 2))
        b = random_game(np.random.default_rng(9), (2, 2))
        assert np.array_equal(a.payoffs, b.payoffs)
        assert a.prefs == b.prefs


class TestScenarios:
    def test_catalog_names(self):
        assert {"example1-2p", "example1-3p", "example2", "random-2x2", "random"} <= set(
            SCENARIOS
        )

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario(RunConfig(scenario="nope"))

    def test_example1_2p_summary(self):
        out = run_scenario(RunConfig(scenario="example1-2p", T=400, seed=0))
        assert out["config"]["scenario"] == "example1-2p"
        res = out["result"]
        assert res["correlated_verdict"] == "non-member"
        assert res["mediated_verdict"] == "member"

    def test_example2_small(self):
        cfg = RunConfig(
            scenario="example2",
            seed=5,
            extras={"T_block": 5, "k": 1, "runs": 30, "families": ["always-top"]},
        )
        out = run_scenario(cfg)
        fam = out["result"]["families"]["always-top"]
        assert 0.0 <= fam["frequency"] <= 1.0
        assert fam["horizon"] == 50

    def test_random_2x2_small(self):
        cfg = RunConfig(
            scenario="random-2x2", seed=6, grid_resolution=12, extras={"games": 4, "dists": 25}
        )
        out = run_scenario(cfg)
        assert out["result"]["agreement_rate"] == 1.0

    def test_random_scenario_runs(self):
        cfg = RunConfig(scenario="random", T=300, seed=8, extras={"sizes": [2, 2]})
        out = run_scenario(cfg)
        assert "correlated_verdict" in out["result"]

    def test_replay_canonical(self):
        out = run_scenario(RunConfig(scenario="replay-canonical", T=800, seed=0))
        assert max(out["result"]["calibration_scores"]) <= 0.01


class TestCanonicalReplayInstance:
    def test_components_consistent(self):
        game, mu, mg, sigma, repair = canonical_replay_instance()
        assert mg.base is game
        assert sigma.is_pure()
        assert set(repair) == {(1, 2), (1, 4), (1, 6)}
        flat = [tuple(np.round(p, 12)) for pts in repair.values() for p in pts]
        assert len(flat) == len(set(flat))  # pairwise distinct
