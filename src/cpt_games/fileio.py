"""On-disk formats: games, distributions, lotteries, mediated games, traces.

All documents are JSON with a ``schema_version`` field (currently 1).
Distribution payloads are a flat row-major array plus a shape header.  A
game document looks like::

    {
      "schema_version": 1,
      "players": 2,
      "actions": [["0", "1"], ["I", "II", "III", "IV"]],
      "payoffs": [ [[...row-major over profiles...]], ... one per player ],
      "preferences": [ {reference, value, weight_gain, weight_loss}, ... ]
    }

``payoffs[i]`` is nested by the action profile (a_1, ..., a_n).  Traces
persist as JSONL, one record per step, with checkpoint records at powers
of two.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cpt import Lottery, preferences_from_dict, preferences_to_dict
from .engine import RunTrace, _distinct_rows
from .games import Game, JointDistribution
from .mediated import MediatedGame, RandomizedStrategyProfile

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "to_json",
    "dump_json",
    "load_json",
    "game_to_dict",
    "game_from_dict",
    "distribution_to_dict",
    "distribution_from_dict",
    "lottery_from_dict",
    "mediated_game_to_dict",
    "mediated_game_from_dict",
    "write_trace_jsonl",
]


def to_json(doc: dict) -> str:
    """Strict JSON text of ``doc``: a NaN or infinity raises ``ValueError``."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def dump_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(to_json(doc) + "\n")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def game_to_dict(game: Game) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "players": game.n,
        "actions": [list(a) for a in game.actions],
        "payoffs": [game.payoffs[i].tolist() for i in range(game.n)],
        "preferences": [preferences_to_dict(p) for p in game.prefs],
    }


def game_from_dict(doc: dict) -> Game:
    actions = [tuple(a) for a in doc["actions"]]
    n = doc.get("players", len(actions))
    if n != len(actions):
        raise ValueError("player count does not match the action lists")
    payoffs = np.array(doc["payoffs"], dtype=float)
    prefs = None
    if doc.get("preferences"):
        prefs = tuple(preferences_from_dict(p) for p in doc["preferences"])
    return Game(actions, payoffs, prefs)


def distribution_to_dict(mu: JointDistribution) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "shape": list(mu.shape),
        "weights": mu.flat().tolist(),
    }


def distribution_from_dict(doc: dict) -> JointDistribution:
    return JointDistribution.from_flat(doc["weights"], tuple(doc["shape"]))


def lottery_from_dict(doc: dict) -> Lottery:
    entries = [(float(p), float(z)) for p, z in doc["entries"]]
    return Lottery([p for p, _ in entries], [z for _, z in entries])


def mediated_game_to_dict(
    mg: MediatedGame,
    sigma: RandomizedStrategyProfile,
    repair_points: dict | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "game": game_to_dict(mg.base),
        "signals": [list(s) for s in mg.signals],
        "psi": {
            "shape": list(mg.signal_shape),
            "weights": mg.mediator.flat().tolist(),
        },
        "sigma": [m.tolist() for m in sigma.maps],
    }
    if repair_points:
        doc["repair_points"] = [
            {"player": i, "signal": b, "points": [np.asarray(p).tolist() for p in pts]}
            for (i, b), pts in sorted(repair_points.items())
        ]
    return doc


def mediated_game_from_dict(
    doc: dict,
) -> tuple[MediatedGame, RandomizedStrategyProfile, dict]:
    game = game_from_dict(doc["game"])
    psi = JointDistribution.from_flat(doc["psi"]["weights"], tuple(doc["psi"]["shape"]))
    mg = MediatedGame(game, [tuple(s) for s in doc["signals"]], psi)
    sigma = RandomizedStrategyProfile(tuple(np.array(m, dtype=float) for m in doc["sigma"]))
    repair = {
        (int(r["player"]), int(r["signal"])): [np.array(p, dtype=float) for p in r["points"]]
        for r in doc.get("repair_points", [])
    }
    return mg, sigma, repair


def write_trace_jsonl(trace: RunTrace, path: str | Path) -> None:
    """One record per step; checkpoint records carry the empirical state.

    Every line is ``json.dumps(record, sort_keys=True)``, assembled from its
    pieces in that key order (a, assessments, checkpoint, mixes, t): each
    player's distinct mix rows are rendered once, and a list of Python ints
    prints as its JSON.
    """
    cp_by_t = {cp.t: cp for cp in trace.checkpoints}
    mixes = []
    for m in trace.mixes:
        first, inverse = _distinct_rows(m)
        rendered = [json.dumps(row) for row in m[first].tolist()]
        mixes.append([rendered[k] for k in inverse.tolist()])
    steps = zip(
        trace.actions.tolist(),
        np.stack(trace.assessment_ids, axis=1).tolist(),
        zip(*mixes),
    )
    with open(path, "w") as fh:
        header = {
            "schema_version": SCHEMA_VERSION,
            "seed": trace.seed,
            "shape": list(trace.shape),
            "horizon": trace.horizon,
            "assessment_dictionaries": [
                [v.tolist() for v in d] for d in trace.assessment_dicts
            ],
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, (a, ids, mix) in enumerate(steps, start=1):
            cp = cp_by_t.get(t)
            checkpoint = ""
            if cp is not None:
                doc = {"xi": cp.xi.ravel().tolist(), "regrets": [r.tolist() for r in cp.regrets]}
                checkpoint = f'"checkpoint": {json.dumps(doc, sort_keys=True)}, '
            fh.write(
                f'{{"a": {a}, "assessments": {ids}, {checkpoint}'
                f'"mixes": [{", ".join(mix)}], "t": {t}}}\n'
            )
