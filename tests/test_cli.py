"""Command-line interface: outputs, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from cpt_games.cli import main
from cpt_games.cpt import preferences_to_dict
from cpt_games.fileio import (
    distribution_to_dict,
    dump_json,
    game_to_dict,
    load_json,
    mediated_game_to_dict,
)
from cpt_games.games import Game, JointDistribution
from cpt_games.harness import canonical_replay_instance
from cpt_games.mediated import identity_mediated_game, obedient_profile
from cpt_games.scripted import (
    counterexample_game,
    cycle_average_distribution,
    odd_cycle_distribution,
)


@pytest.fixture
def files(tmp_path):
    game = counterexample_game()
    beta = game.payoffs[0, 0, 0] / 2.0
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        dump_json(doc, p)
        paths[name] = str(p)

    put("game.json", game_to_dict(game))
    mu_o = distribution_to_dict(JointDistribution(odd_cycle_distribution()))
    put("mu_o.json", mu_o)
    put("mu_star.json", distribution_to_dict(JointDistribution(cycle_average_distribution())))
    put("zero.json", {**mu_o, "weights": [0.0] * len(mu_o["weights"])})
    prefs = preferences_to_dict(game.prefs[0])
    put("prefs.json", prefs)
    put(
        "lottery.json",
        {"entries": [[0.5, 2 * beta], [0.0, beta + 1], [0.5, 0.0], [0.0, 1.0]]},
    )
    put("bad.json", {"entries": "nope"})
    _, _, mg, sigma, repair = canonical_replay_instance()
    put("mediated.json", mediated_game_to_dict(mg, sigma, repair))
    mg_bare = identity_mediated_game(game, JointDistribution(odd_cycle_distribution()))
    put("mediated_bare.json", mediated_game_to_dict(mg_bare, obedient_profile(mg_bare)))
    massless = mediated_game_to_dict(mg_bare, obedient_profile(mg_bare))
    massless["psi"]["weights"] = [0.0] * len(massless["psi"]["weights"])
    put("mediated_massless.json", massless)
    put("cfg.json", {"scenario": "example1-2p", "T": 400, "seed": 0})
    put("cfg_bad.json", {"scenario": "no-such-thing", "T": 10, "seed": 0})
    paths["dir"] = str(tmp_path)
    return paths


class TestEval:
    def test_prints_cpt_value(self, files, capsys):
        assert main(["eval", files["prefs.json"], files["lottery.json"]]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 2.0) <= 2e-3
        assert len(out.split(".")[1]) == 6

    def test_malformed_file_exits_2(self, files, capsys):
        assert main(["eval", files["prefs.json"], files["bad.json"]]) == 2

    def test_missing_file_exits_2(self, files):
        assert main(["eval", files["prefs.json"], files["dir"] + "/absent.json"]) == 2


class TestCheck:
    def test_member_exits_0(self, files, capsys):
        code = main(["check", "--game", files["game.json"], "--dist", files["mu_o.json"],
                     "--mode", "correlated"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "member"

    def test_non_member_exits_1_with_witness(self, files, capsys):
        code = main(["check", "--game", files["game.json"], "--dist", files["mu_star.json"],
                     "--mode", "correlated"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] == {
            "kind": "violation", "player": 0, "action": 0, "deviation": 1
        }

    def test_mediated_member(self, files, capsys):
        code = main(["check", "--game", files["game.json"], "--dist", files["mu_star.json"],
                     "--mode", "mediated", "--grid", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["lp_points"] > 0

    def test_nash_mode_rejects_correlated_dist(self, files, tmp_path, capsys):
        correlated = np.zeros((2, 4))
        correlated[0, 0] = 0.5
        correlated[1, 1] = 0.5
        dump_json(
            distribution_to_dict(JointDistribution(correlated)), tmp_path / "corr.json"
        )
        code = main(["check", "--game", files["game.json"],
                     "--dist", str(tmp_path / "corr.json"), "--mode", "nash"])
        assert code == 2  # not of product form

    def test_null_preference_parameter_exits_2(self, files, tmp_path, capsys):
        doc = load_json(files["game.json"])
        doc["preferences"][0]["value"] = {
            "kind": "piecewise-power", "alpha": None, "beta": 0.88, "loss_aversion": 2.25
        }
        dump_json(doc, tmp_path / "null_alpha.json")
        code = main(["check", "--game", str(tmp_path / "null_alpha.json"),
                     "--dist", files["mu_o.json"], "--mode", "correlated"])
        assert code == 2
        assert "cannot parse input" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["correlated", "nash", "mediated"])
    def test_all_zero_distribution_exits_2(self, files, mode, capsys):
        code = main(["check", "--game", files["game.json"], "--dist", files["zero.json"],
                     "--mode", mode])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distribution has no mass" in captured.err

    @pytest.mark.parametrize("mode", ["correlated", "nash", "mediated"])
    def test_one_action_game_prints_strict_json(self, mode, tmp_path, capsys):
        # every player has one action: no deviation, so margin 0.0, never Infinity
        dump_json(game_to_dict(Game([["x"], ["y"]], np.array([[[1.0]], [[-2.0]]]))),
                  tmp_path / "game.json")
        dump_json(distribution_to_dict(JointDistribution(np.ones((1, 1)))), tmp_path / "dist.json")
        code = main(["check", "--game", str(tmp_path / "game.json"),
                     "--dist", str(tmp_path / "dist.json"), "--mode", mode])
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["verdict"] == "member" and doc["margin"] == 0.0
        assert doc["meta"]["check"] == mode and "tol" in doc["meta"]

    def test_empty_region_margin_prints_strict_json(self, tmp_path, capsys):
        # row action 1 pays -10 everywhere: its sampled region is empty, so the
        # mediated margin is -inf, which the certificate writes as "-inf"
        game = counterexample_game()
        payoffs = np.array(game.payoffs)
        payoffs[0, 1] = -10.0
        dump_json(game_to_dict(Game(game.actions, payoffs, game.prefs)), tmp_path / "game.json")
        dump_json(distribution_to_dict(JointDistribution(np.full((2, 4), 0.125))),
                  tmp_path / "dist.json")
        code = main(["check", "--game", str(tmp_path / "game.json"),
                     "--dist", str(tmp_path / "dist.json"), "--mode", "mediated"])
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["verdict"] == "non-member" and doc["margin"] == "-inf"
        assert doc["meta"]["lp_points"] == 0

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exits_2(self, files, tol, capsys):
        # strict JSON cannot write the tolerance into the certificate's meta,
        # so it is rejected before the check runs
        code = main(["check", "--game", files["game.json"], "--dist", files["mu_o.json"],
                     "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --tol must be finite")

    def test_shape_mismatch_exits_3(self, files, tmp_path, capsys):
        dump_json(
            distribution_to_dict(JointDistribution(np.full((2, 2), 0.25))),
            tmp_path / "square.json",
        )
        code = main(["check", "--game", files["game.json"],
                     "--dist", str(tmp_path / "square.json"), "--mode", "correlated"])
        assert code == 3


class TestSimulate:
    def test_scenario_runs_and_echoes_config(self, files, capsys):
        assert main(["simulate", "--config", files["cfg.json"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["scenario"] == "example1-2p"
        assert doc["result"]["correlated_verdict"] == "non-member"
        assert doc["result"]["mediated_verdict"] == "member"

    def test_unknown_scenario_exits_4(self, files):
        assert main(["simulate", "--config", files["cfg_bad.json"]]) == 4

    def test_stdout_is_the_written_summary(self, files, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", files["cfg.json"], "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "summary.json").read_text()

    def test_seed_option_overrides_the_config_seed(self, files, tmp_path, capsys):
        assert main(["simulate", "--config", files["cfg.json"], "--seed", "7"]) == 0
        overridden = capsys.readouterr().out
        assert json.loads(overridden)["config"]["seed"] == 7
        dump_json({**load_json(files["cfg.json"]), "seed": 7}, tmp_path / "seed7.json")
        assert main(["simulate", "--config", str(tmp_path / "seed7.json")]) == 0
        assert capsys.readouterr().out == overridden

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "example1-2p", "T": 2},  # shorter than one cycle
            {"scenario": "example2", "extras": {"runs": 0}},
            {"scenario": "example1-2p", "T": "64"},  # wrongly typed fields
            {"scenario": "example1-2p", "T": 64.5},
            {"scenario": "example1-2p", "tol": "x"},
            {"scenario": "example1-2p", "extras": None},
            {"scenario": "example1-2p", "T": 64, "seed": True},  # a bool is not an int
            {"scenario": "random-2x2", "extras": {"games": 0}},
            {"scenario": "random-2x2", "extras": {"dists": 0}},
            {"scenario": "example2", "extras": {"families": 5}},  # wrongly typed extras
            {"scenario": "random", "extras": {"sizes": 3}},
            {"scenario": "random", "T": 10, "extras": {"size": [2, 2, 2]}},  # misspelled key
            {"scenario": "example1-2p", "extras": {"runs": 3}},  # reads no extras
            {"scenario": "random-2x2", "grid_resolution": 0, "extras": {"games": 1, "dists": 3}},
            # "out" names a run directory passed as --out, which must not be made
            {"scenario": "example1-2p", "T": 64, "grid_resolution": 0, "out": "run"},
            {"scenario": "example2", "grid_resolution": 0},
        ],
    )
    def test_invalid_config_value_exits_2(self, doc, tmp_path, capsys):
        doc = dict(doc)
        out = doc.pop("out", None)
        dump_json(doc, tmp_path / "cfg.json")
        argv = ["simulate", "--config", str(tmp_path / "cfg.json")]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        if out is not None:
            assert not (tmp_path / out).exists()

    def test_non_finite_margin_prints_strict_json(self, tmp_path, capsys):
        # on this seed the resolution-1 grid gives an empty sampled region, so
        # the mediated margin is -inf, which the summary writes as "-inf"
        doc = {"scenario": "random", "T": 300, "seed": 4, "grid_resolution": 1,
               "extras": {"sizes": [2, 3]}}
        dump_json(doc, tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(tmp_path / "cfg.json")]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        result = json.loads(capsys.readouterr().out, parse_constant=reject)["result"]
        assert result["mediated_verdict"] == "non-member"
        assert result["mediated_margin"] == "-inf"
        assert isinstance(result["correlated_margin"], float)

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity, which strict JSON cannot write
        # back: the config is rejected before the scenario runs
        for field, text in [
            ("'tol'", '{"scenario": "example1-2p", "T": 64, "tol": NaN}'),
            ("'forecaster_epsilon'", '{"scenario": "random", "T": 64, "forecaster_epsilon": Infinity}'),
            ("'eps_tilde'", '{"scenario": "example2", "extras": {"eps_tilde": -Infinity}}'),
        ]:
            (tmp_path / "cfg.json").write_text(text)
            out = tmp_path / "run"
            assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert field in captured.err and "must be finite" in captured.err
            assert not (out / "trace.jsonl").exists()

    def test_rerun_from_emitted_config_is_bit_identical(self, files, tmp_path, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["simulate", "--config", files["cfg.json"], "--out", str(out1)]) == 0
        capsys.readouterr()
        summary = json.loads((out1 / "summary.json").read_text())
        cfg2 = dict(summary["config"])
        cfg2["out"] = None
        dump_json(cfg2, tmp_path / "cfg2.json")
        assert main(["simulate", "--config", str(tmp_path / "cfg2.json"),
                     "--out", str(out2)]) == 0
        a = (out1 / "summary.json").read_text()
        b = (out2 / "summary.json").read_text()
        assert a.replace(str(out1), "X") == b.replace(str(out2), "X")


class TestReplay:
    def test_replay_reports_scores(self, files, capsys):
        code = main(["replay", "--game", files["mediated.json"], "--steps", "400"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["result"]["calibration_scores"]) <= 0.01

    def test_stdout_is_the_written_report(self, files, tmp_path, capsys):
        out = tmp_path / "replay"
        code = main(["replay", "--game", files["mediated.json"], "--steps", "400",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (out / "replay.json").read_text()

    def test_collision_exits_5(self, files, capsys):
        code = main(["replay", "--game", files["mediated_bare.json"], "--steps", "100"])
        assert code == 5

    def test_null_preference_parameter_exits_2(self, files, tmp_path, capsys):
        doc = load_json(files["mediated.json"])
        doc["game"]["preferences"][0]["value"] = {
            "kind": "piecewise-power", "alpha": None, "beta": 0.88, "loss_aversion": 2.25
        }
        dump_json(doc, tmp_path / "null_alpha.json")
        code = main(["replay", "--game", str(tmp_path / "null_alpha.json"), "--steps", "100"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_massless_mediator_exits_2(self, files, capsys):
        code = main(["replay", "--game", files["mediated_massless.json"], "--steps", "100"])
        assert code == 2
        assert "no mass" in capsys.readouterr().err
