"""Round trips for the on-disk JSON formats."""

import json

import numpy as np
import pytest

from cpt_games.engine import (
    ActionScriptStrategy,
    FixedMixStrategy,
    ForecastingBestReaction,
    run_engine,
)
from cpt_games.fileio import (
    distribution_from_dict,
    distribution_to_dict,
    dump_json,
    game_from_dict,
    game_to_dict,
    load_json,
    lottery_from_dict,
    mediated_game_from_dict,
    mediated_game_to_dict,
    write_trace_jsonl,
)
from cpt_games.harness import canonical_replay_instance, random_game
from cpt_games.scripted import block_adversary, counterexample_game, scripted_cycle_run


class TestGameDocuments:
    def test_roundtrip_counterexample(self, game, tmp_path):
        doc = game_to_dict(game)
        path = tmp_path / "game.json"
        dump_json(doc, path)
        back = game_from_dict(load_json(path))
        assert back.actions == game.actions
        assert np.array_equal(back.payoffs, game.payoffs)
        assert back.prefs == game.prefs

    def test_roundtrip_random_games(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_game(rng, (2, 3))
            back = game_from_dict(json.loads(json.dumps(game_to_dict(g))))
            assert np.abs(back.payoffs - g.payoffs).max() == 0.0
            assert back.prefs == g.prefs

    def test_player_count_checked(self, game):
        doc = game_to_dict(game)
        doc["players"] = 3
        with pytest.raises(ValueError):
            game_from_dict(doc)


class TestDistributionDocuments:
    def test_roundtrip(self, mu_star):
        doc = distribution_to_dict(mu_star)
        assert doc["shape"] == [2, 4]
        back = distribution_from_dict(doc)
        assert np.array_equal(back.weights, mu_star.weights)

    def test_flat_layout_is_row_major(self, mu_o):
        doc = distribution_to_dict(mu_o)
        assert doc["weights"][:4] == [0.5, 0.0, 0.5, 0.0]


class TestLotteryDocuments:
    def test_entries_parse(self):
        lot = lottery_from_dict({"entries": [[0.5, 2.0], [0.5, 0.0]]})
        assert np.allclose(lot.probs, [0.5, 0.5])
        assert np.allclose(lot.outcomes, [2.0, 0.0])


class TestMediatedDocuments:
    def test_roundtrip_with_repair_points(self, tmp_path):
        _, _, mg, sigma, repair = canonical_replay_instance()
        doc = mediated_game_to_dict(mg, sigma, repair)
        path = tmp_path / "mediated.json"
        dump_json(doc, path)
        mg2, sigma2, repair2 = mediated_game_from_dict(load_json(path))
        assert mg2.signals == mg.signals
        assert np.abs(mg2.mediator.weights - mg.mediator.weights).max() == 0.0
        for a, b in zip(sigma.maps, sigma2.maps):
            assert np.array_equal(a, b)
        assert set(repair2) == set(repair)
        for key in repair:
            for p, q in zip(repair[key], repair2[key]):
                assert np.array_equal(p, q)


class TestTraceFiles:
    def test_jsonl_structure(self, tmp_path):
        g = counterexample_game()
        strategies = [FixedMixStrategy([1, 0]), ActionScriptStrategy(lambda t: (t - 1) % 4)]
        trace = run_engine(g, strategies, 16, 5)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["horizon"] == 16
        steps = lines[1:]
        assert len(steps) == 16
        assert steps[0]["t"] == 1
        # checkpoints at powers of two and the horizon
        cp_ts = [r["t"] for r in steps if "checkpoint" in r]
        assert cp_ts == [1, 2, 4, 8, 16]
        assert steps[0]["mixes"][0] == [1.0, 0.0]
        assert len(steps[0]["mixes"][1]) == 4
        xi = np.array(steps[-1]["checkpoint"]["xi"]).reshape(2, 4)
        assert np.abs(xi - trace.empirical().weights).max() < 1e-12


def reference_write_trace_jsonl(trace, path):
    """Frozen per-step writer: one ``json.dumps(record, sort_keys=True)`` per line."""
    cp_by_t = {cp.t: cp for cp in trace.checkpoints}
    with open(path, "w") as fh:
        header = {
            "schema_version": 1,
            "seed": trace.seed,
            "shape": list(trace.shape),
            "horizon": trace.horizon,
            "assessment_dictionaries": [
                [v.tolist() for v in d] for d in trace.assessment_dicts
            ],
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t in range(1, trace.horizon + 1):
            rec = {
                "t": t,
                "a": trace.actions[t - 1].tolist(),
                "assessments": [int(ids[t - 1]) for ids in trace.assessment_ids],
                "mixes": [m[t - 1].tolist() for m in trace.mixes],
            }
            cp = cp_by_t.get(t)
            if cp is not None:
                rec["checkpoint"] = {
                    "xi": cp.xi.ravel().tolist(),
                    "regrets": [r.tolist() for r in cp.regrets],
                }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _cycle(variant, T):
    return lambda: scripted_cycle_run(variant, T, resolution=6)[0]


def _forecaster_vs_adversary(checkpoints):
    def run():
        strategies = [ForecastingBestReaction(0.1), block_adversary(3)]
        return run_engine(counterexample_game(), strategies, 300, 4, checkpoints=checkpoints)

    return run


def _fixed_mixes_2x3x2():
    rng = np.random.default_rng(2)
    game = random_game(rng, (2, 3, 2))
    strategies = [FixedMixStrategy(rng.dirichlet(np.ones(k))) for k in (2, 3, 2)]
    return run_engine(game, strategies, 777, 5)


TRACE_CASES = {
    "cycle-2p-4000": _cycle("2p", 4000),
    "cycle-3p-2000": _cycle("3p", 2000),
    "cycle-2p-1023": _cycle("2p", 1023),
    "forecaster-checkpoints": _forecaster_vs_adversary(True),
    "forecaster-no-checkpoints": _forecaster_vs_adversary(False),
    "fixed-mixes-2x3x2": _fixed_mixes_2x3x2,
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_bytes_match_per_step_writer(case, tmp_path):
    trace = TRACE_CASES[case]()
    write_trace_jsonl(trace, tmp_path / "got.jsonl")
    reference_write_trace_jsonl(trace, tmp_path / "want.jsonl")
    got, want = (tmp_path / "got.jsonl").read_bytes(), (tmp_path / "want.jsonl").read_bytes()
    assert got == want
    if case == "fixed-mixes-2x3x2":
        assert all(np.all(ids == -1) for ids in trace.assessment_ids)
    if case == "forecaster-no-checkpoints":
        assert b'"checkpoint"' not in got
