"""In-memory spans around calls into the ``cpt_games`` modules.

``Tracer.install`` replaces selected functions and methods with wrappers on
every module attribute and class that holds them, so a call is recorded
whichever module looks the name up (``equilibrium.cpt_value`` as well as
``cpt.cpt_value``).  A span is a name, a start, an end and the index of the
enclosing span; spans stay in compact arrays until ``layer_metrics``
turns them into per-layer counts, times and ratios.  ``uninstall`` puts the
original objects back, so the checks after the timed phase run untraced.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from array import array
from collections import Counter

import numpy as np

# Dense invariant-distribution solve up to this forecast-grid size (the
# cut in ``CalibratedForecaster``); above it the forecaster iterates.
DENSE_SOLVE_CUT = 320


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sample_region_hook(tr, args, kwargs, result):
    game, i = args[0], args[1]
    res = _arg(args, kwargs, 3, "resolution")
    d = game.num_opponent_profiles(i)
    tr.counts["equilibrium.grid_points"] += math.comb(res + d - 1, d - 1)
    tr.counts["equilibrium.region_accepted"] += len(result)


def _hull_residual_hook(tr, args, kwargs, result):
    tr.counts["simplex.lp_points"] += len(args[0])


def _predict_hook(tr, args, kwargs, result):
    q = args[0].grid.shape[0]
    tr.counts["calibration.grid_sum"] += q
    if q <= DENSE_SOLVE_CUT:
        tr.counts["calibration.solve_flop"] += q**3 / 3.0


def _run_engine_hook(tr, args, kwargs, result):
    tr.counts["engine.steps"] += _arg(args, kwargs, 2, "T")


def _replay_hook(tr, args, kwargs, result):
    tr.counts["replay.steps"] += _arg(args, kwargs, 2, "T")


def _file_hook(tr, args, kwargs, result):
    tr.counts["fileio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# module -> traced functions and Class.method names, with optional hooks
TARGETS = {
    "cpt": ["cpt_value", "cpt_regret"],
    "games": ["marginal", "conditional", "induced_lottery", "empirical_update", "product_join"],
    "equilibrium": [
        "action_values", "best_reaction", "region_membership", "_region_margin",
        "check_correlated_eq", "check_nash", "simplex_grid",
        ("sample_region", _sample_region_hook), "hull_membership", "_hull_check_one",
        "check_mediated_eq", "mediated_hull_distance",
    ],
    "simplex": [("hull_residual", _hull_residual_hook), "solve_standard_lp"],
    "calibration": [
        "calibration_score",
        ("CalibratedForecaster.predict", _predict_hook),
        "CalibratedForecaster.observe",
        "ForecastRecord.intern",
        "ForecastRecord.append",
    ],
    "engine": [
        ("run_engine", _run_engine_hook), "regret_matrix_from_counts", "cpt_regret_matrix",
        "assessment_record", "max_calibration_score",
    ],
    "mediated": [
        "signal_assessment", "induced_action_distribution", "construct_mediator",
        "verify_mediated_nash", "reduce_convex_witness",
    ],
    "replay": [("construct_calibrated_replay", _replay_hook)],
    "scripted": [
        "scripted_cycle_run", "regret_tail_probe", "counterexample_game",
        "counterexample_game_3p", "block_adversary", "_bar_regret", "BlockSchedule.mix",
    ],
    "harness": ["run_scenario", "canonical_replay_instance"],
    "fileio": [("write_trace_jsonl", _file_hook), ("dump_json", _file_hook)],
}
LAYERS = tuple(TARGETS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target on every ``cpt_games`` module that binds it."""
        modules = {m: importlib.import_module(f"cpt_games.{m}") for m in LAYERS}
        wrappers = {}
        for layer, entries in TARGETS.items():
            mod = modules[layer]
            for entry in entries:
                attr, hook = entry if isinstance(entry, tuple) else (entry, None)
                owner, _, meth = attr.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    fn = cls.__dict__[meth]
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(f"{layer}.{attr}", fn, hook))
                else:
                    fn = getattr(mod, attr)
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn, hook))
        for mod in list(modules.values()) + [importlib.import_module("cpt_games")]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def layer_metrics(self, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); times are multiplied by ``time_scale``."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        dur = np.frombuffer(self.end, dtype=float, count=n) - start
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - covered
        layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in self.names])
        span_layer = layer_of_name[nid] if n else np.zeros(0, dtype=int)

        def ids(name):
            return np.isin(nid, [k for k, s in enumerate(self.names) if s == name])

        def count(name):
            return int(ids(name).sum())

        def child_of(name, parent_name):
            mask = ids(name)
            pmask = ids(parent_name)
            return int((mask & nested & pmask[np.maximum(parent, 0)]).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        def median(values):
            return float(np.median(values)) if values.size else 0.0

        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = (float(self_time[span_layer == k].sum()), "s")
        c = self.counts
        hull_checks = count("equilibrium._hull_check_one")
        needed = child_of("equilibrium.hull_membership", "equilibrium._hull_check_one")
        sampled = child_of("equilibrium.sample_region", "equilibrium._hull_check_one")
        predicts = count("calibration.CalibratedForecaster.predict")
        lp = ids("simplex.hull_residual")
        out.update({
            "cpt.values": (count("cpt.cpt_value"), "count"),
            "games.lotteries": (count("games.induced_lottery"), "count"),
            "equilibrium.region_samples": (count("equilibrium.sample_region"), "count"),
            "equilibrium.grid_points": (c["equilibrium.grid_points"], "count"),
            "equilibrium.region_accept_ratio": (
                ratio(c["equilibrium.region_accepted"], c["equilibrium.grid_points"]), "ratio"),
            "equilibrium.sample_region_s": (
                float(dur[ids("equilibrium.sample_region")].sum()), "s"),
            "equilibrium.region_reuse_ratio": (ratio(needed - sampled, needed), "ratio"),
            "equilibrium.self_certified_ratio": (
                ratio(hull_checks - needed, hull_checks), "ratio"),
            "simplex.lps": (int(lp.sum()), "count"),
            "simplex.lp_points": (c["simplex.lp_points"], "count"),
            "simplex.lp_ms_p50": (median(dur[lp]) * 1e3, "ms"),
            "calibration.predicts": (predicts, "count"),
            "calibration.grid_mean": (ratio(c["calibration.grid_sum"], predicts), "count"),
            "calibration.solve_gflop_computed": (c["calibration.solve_flop"] / 1e9, "GFLOP"),
            "calibration.predict_us_p50": (
                median(dur[ids("calibration.CalibratedForecaster.predict")]) * 1e6, "us"),
            "calibration.score_self_s": (
                float(self_time[ids("calibration.calibration_score")].sum()), "s"),
            "engine.steps": (c["engine.steps"], "count"),
            "engine.regret_matrices": (count("engine.regret_matrix_from_counts"), "count"),
            "engine.regret_s": (float(dur[ids("engine.regret_matrix_from_counts")].sum()), "s"),
            "mediated.assessments": (count("mediated.signal_assessment"), "count"),
            "replay.steps": (c["replay.steps"], "count"),
            "fileio.bytes_written": (c["fileio.bytes_written"], "bytes"),
        })
        return {
            k: (v * time_scale if unit in ("s", "ms", "us") else v, unit)
            for k, (v, unit) in out.items()
        }
