"""Fast tests of the benchmark's reference and checks.

    python3 -m pytest -q perfbench/test_checks.py

Each check is shown to pass on a real program output and to fail on a
deliberately corrupted copy of it.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

PRELEC_HALF = ref.RefWeight("prelec", gamma=0.5)
ROW = ref.RefPrefs(0.0, "identity", 1.0, 1.0, 1.0, PRELEC_HALF, PRELEC_HALF)
UNIFORM = np.full(4, 0.25)


def test_reference_reproduces_the_paper_constants():
    w_half = float(PRELEC_HALF(np.array(0.5)))
    beta = 1.0 / w_half
    assert abs(w_half - 0.435) <= 5e-4
    assert abs(beta - 2.299) <= 2e-3
    top = ROW.values(UNIFORM, [2 * beta, beta + 1.0, 0.0, 1.0])[0]
    bottom = ROW.values(UNIFORM, [1.99] * 4)[0]
    assert abs(top - 1.985) <= 2e-3
    assert abs(bottom - 1.99) <= 1e-12


def test_reference_matches_eut_and_tabulated_identity():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(6))
    z = rng.normal(size=6)
    identity = ref.RefWeight("identity")
    eut = ref.RefPrefs(0.0, "identity", 1, 1, 1, identity, identity)
    assert abs(eut.values(p, z)[0] - p @ z) < 1e-12
    line = ref.RefWeight("tabulated", points=((0.0, 0.0), (0.3, 0.3), (1.0, 1.0)))
    tab = dataclasses.replace(eut, w_gain=line, w_loss=line)
    assert abs(tab.values(p, z)[0] - p @ z) < 1e-12


def test_compositions_count():
    assert len(list(ref.compositions(24, 4))) == 2925
    assert len(list(ref.compositions(6, 8))) == 1716


def _counterexample_query(weights, factors=None):
    game = W.scripted.counterexample_game()
    rgame = W.ref_game(game.payoffs, game.prefs)
    return rgame, W.run_query(game, weights, factors, {})


def _cycle_average():
    factors = [np.array([1.0, 0.0]), W.scripted.UNIFORM_MIX]
    rgame, out = _counterexample_query(W.outer(factors), factors)
    return rgame, W.outer(factors), factors, out


def test_query_check_catches_flipped_verdicts_and_shifted_margins():
    rgame, weights, factors, out = _cycle_average()
    assert checks.check_query(rgame, weights, out, factors) == []
    flipped = dict(out, corr=dataclasses.replace(out["corr"], member=True))
    assert checks.check_query(rgame, weights, flipped, factors)
    shifted = dict(out, corr=dataclasses.replace(out["corr"], margin=out["corr"].margin + 1e-3))
    assert checks.check_query(rgame, weights, shifted, factors)
    nash = dict(out, nash=dataclasses.replace(out["nash"], margin=out["nash"].margin - 1e-3))
    assert checks.check_query(rgame, weights, nash, factors)
    med = dict(out, med=dataclasses.replace(out["med"], member=False))
    assert checks.check_query(rgame, weights, med, factors)


def test_witness_check_catches_perturbed_witnesses():
    rgame, weights, factors, out = _cycle_average()
    per_action = out["med"].witness["per_action"]
    row = per_action["0:0"]
    assert len(row["theta"]) > 1
    for bad in (
        dict(row, theta=[row["theta"][0] + 0.1] + row["theta"][1:]),  # not a distribution
        dict(row, theta=[1.0] + [0.0] * (len(row["theta"]) - 1)),  # mixture misses
        dict(row, points=[[0.0, 0.0, 1.0, 0.0]] + row["points"][1:]),  # point outside region
    ):
        witness = dict(out["med"].witness, per_action=dict(per_action, **{"0:0": bad}))
        med = dataclasses.replace(out["med"], witness=witness)
        assert checks.check_mediated_witness(rgame, weights, med)


def test_violation_check_catches_wrong_residuals():
    weights = np.array([[0.1, 0.2, 0.3, 0.1], [0.1, 0.05, 0.05, 0.1]])
    rgame, out = _counterexample_query(weights)
    assert not out["med"].member
    assert checks.check_query(rgame, weights, out) == []
    med = dataclasses.replace(out["med"], margin=out["med"].margin / 2)
    assert checks.check_mediated_violation(rgame, weights, med)
    med = dataclasses.replace(out["med"], member=True, margin=0.0)
    assert checks.check_query(rgame, weights, dict(out, med=med))


def test_example1_check():
    assert checks.check_example1(False, -0.00488, True) == []
    assert checks.check_example1(True, -0.00488, True)
    assert checks.check_example1(False, -0.009, True)
    assert checks.check_example1(False, -0.00488, False)


def _play(sizes, eut: bool):
    rng = np.random.default_rng(3)
    kinds = [("eut" if eut else W.CPT_KINDS[i]) for i in range(len(sizes))]
    game, rgame = W.make_game(rng, sizes, kinds)
    op = W.Op("play", lambda: W.run_play(game, 40, 11), {"game": rgame, "eut": eut})
    return op, op.fn()


@pytest.mark.parametrize("sizes, eut", [((2, 3), False), ((2, 3), True), ((2, 2, 2), False)])
def test_play_check_catches_edited_actions_and_regrets(sizes, eut):
    op, out = _play(sizes, eut)
    assert W.check_play(op, out) == []
    trace = out["trace"]
    # an action that is not the best reaction to its logged assessment
    actions = trace.actions.copy()
    ids, dicts = trace.assessment_ids[1], trace.assessment_dicts[1]
    vals = op.ctx["game"].action_values(1, np.asarray(dicts[ids[5]]))[0]
    actions[5, 1] = int(np.argmin(vals))
    edited = dataclasses.replace(trace, actions=actions)
    assert W.check_play(op, dict(out, trace=edited))
    cp = trace.checkpoints[-1]
    regrets = (cp.regrets[0] + 1e-3,) + cp.regrets[1:]
    bad_cp = dataclasses.replace(cp, regrets=regrets)
    edited = dataclasses.replace(trace, checkpoints=trace.checkpoints[:-1] + [bad_cp])
    assert W.check_play(op, dict(out, trace=edited))
    assert W.check_play(op, dict(out, scores=[s + 1e-3 for s in out["scores"]]))


def test_probe_check_catches_a_wrong_bar_regret():
    game = W.scripted.counterexample_game()
    rgame = W.ref_game(game.payoffs, game.prefs)
    op = W.Op("probe-always-top", None, {"game": rgame, "family": "always-top", "seed": 5})
    out = W.run_probe("always-top", 5)
    assert W.check_probe_op(op, out) == []
    assert W.check_probe_op(op, dict(out, mean_bar_regret=out["mean_bar_regret"] + 1e-3))
    assert W.check_probe_op(op, dict(out, frequency=1.0 - out["frequency"]))


def test_trace_file_check_catches_an_edited_line(tmp_path):
    game = W.scripted.counterexample_game()
    op = W.Op("cycle-2p", None, {"variant": "2p", "game": W.ref_game(game.payoffs, game.prefs),
                                 "out_dir": tmp_path})
    summary = W.run_cycle("2p", 16, 0, tmp_path)
    assert W.check_cycle(op, summary) == []
    path = tmp_path / "trace.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["a"] = [1, rec["a"][1]]
    path.write_text("\n".join(lines[:3] + [json.dumps(rec)] + lines[4:]) + "\n")
    assert W.check_cycle(op, summary)


def test_replay_check_catches_wrong_scores_and_signals():
    op = W.Op("replay", None)
    out = W.run_replay(400)
    assert W.check_replay(op, out) == []
    scripts = out["scripts"]
    report = dict(scripts.report, calibration_scores=[0.5, 0.0])
    bad = dataclasses.replace(scripts, report=report)
    assert W.check_replay(op, dict(out, scripts=bad))
    signals = scripts.signals.copy()
    signals[:40] = signals[0]
    bad = dataclasses.replace(scripts, signals=signals)
    assert W.check_replay(op, dict(out, scripts=bad))


def test_tail_frequency_check(tmp_path):
    plan = W.build_script(1, 1, tmp_path)
    ops = plan.ops
    outputs = [{"frequency": 0.0} if op.kind.startswith("probe") else None for op in ops]
    extra = plan.check_run(ops, outputs)
    assert extra and all(ops[k].kind.startswith("probe") for k in extra)


def test_traced_counts_repeat_and_tracer_restores_the_program(tmp_path):
    from cpt_games import cpt, equilibrium

    original = equilibrium.cpt_value
    counts = []
    for _ in range(2):
        plan = W.build_check_fresh(7, 1, tmp_path)
        tracer = Tracer()
        tracer.install()
        assert equilibrium.cpt_value is not original
        for op in plan.ops[:6]:
            op.fn()
        tracer.uninstall()
        assert equilibrium.cpt_value is original and cpt.cpt_value is original
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        assert metrics["cpt.values"][0] > 0 and metrics["equilibrium.region_samples"][0] > 0
    assert counts[0] == counts[1]
