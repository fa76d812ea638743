"""Scenario catalog and reproduction drivers.

Each scenario maps a :class:`RunConfig` to a machine-readable summary dict
(and optional trace files).  The effective config is embedded in every
summary, and re-running from that embedded config reproduces the outputs
bit-identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cpt import CptPreferences, eut_preferences, piecewise_power_value, prelec_weighting
from .engine import ForecastingBestReaction, run_engine, max_calibration_score
from .equilibrium import (
    DEFAULT_GRID,
    DEFAULT_HULL_TOL,
    _json_margin,
    check_correlated_eq,
    check_mediated_eq,
)
from .fileio import SCHEMA_VERSION, dump_json, write_trace_jsonl
from .games import Game, JointDistribution
from .mediated import construct_mediator
from .replay import construct_calibrated_replay
from .scripted import (
    EVEN_MIX,
    ODD_MIX,
    counterexample_game,
    cycle_average_distribution,
    probe_strategy_family,
    regret_tail_probe,
    scripted_cycle_run,
)

__all__ = [
    "RunConfig",
    "SCENARIOS",
    "run_scenario",
    "random_game",
    "random_distribution",
    "canonical_replay_instance",
]

PAYOFF_SCALE = 1.0  # random games draw payoffs uniformly from [-PAYOFF_SCALE, PAYOFF_SCALE]


@dataclass
class RunConfig:
    """Effective parameters of one scenario run; serialized with outputs."""

    scenario: str
    T: int = 4000
    seed: int = 0
    forecaster_epsilon: float = 0.1
    grid_resolution: int | None = None
    tol: float = DEFAULT_HULL_TOL
    out: str | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = dict(doc)
        doc.pop("schema_version", None)
        config = cls(**doc)
        for name, kinds in _CONFIG_TYPES.items():
            _check_value(f"config field {name!r}", getattr(config, name), kinds)
        # rejected before a scenario runs or its output directory is made
        if config.grid_resolution is not None and config.grid_resolution < 1:
            raise ValueError("grid resolution must be >= 1")
        known = _EXTRAS_TYPES.get(config.scenario, {})
        for name, value in config.extras.items():
            if name not in known:
                raise ValueError(f"scenario {config.scenario!r} reads no extras entry {name!r}")
            _check_value(f"extras entry {name!r}", value, known[name])
        return config


_CONFIG_TYPES = {
    "scenario": str,
    "T": int,
    "seed": int,
    "forecaster_epsilon": (int, float),
    "grid_resolution": (int, type(None)),
    "tol": (int, float),
    "out": (str, type(None)),
    "extras": dict,
}

# The extras each scenario reads, and no others; ``[kind]`` is a list of that kind.
_EXTRAS_TYPES = {
    "example2": {
        "T_block": int, "k": int, "runs": int, "eps_tilde": (int, float), "families": [str],
    },
    "random-2x2": {"games": int, "dists": int},
    "random": {"sizes": [int], "eut": bool},
}


def _has_type(value, kinds) -> bool:
    if isinstance(kinds, list):
        return isinstance(value, (list, tuple)) and all(_has_type(v, kinds[0]) for v in value)
    # JSON true/false would otherwise pass as the ints 1/0
    if isinstance(value, bool) and kinds is not bool:
        return False
    return isinstance(value, kinds)


def _check_value(what: str, value, kinds) -> None:
    if not _has_type(value, kinds):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    # Python's json reads NaN and Infinity, which strict JSON cannot write back
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{what} must be finite: {value!r}")


def random_preferences(rng: np.random.Generator, eut: bool = False) -> CptPreferences:
    if eut:
        return eut_preferences()
    value = piecewise_power_value(
        reference=0.0,
        alpha=rng.uniform(0.5, 1.0),
        beta=rng.uniform(0.5, 1.0),
        loss_aversion=rng.uniform(1.0, 2.5),
    )
    return CptPreferences(
        value,
        prelec_weighting(rng.uniform(0.4, 1.0)),
        prelec_weighting(rng.uniform(0.4, 1.0)),
    )


def random_game(
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    eut: bool = False,
) -> Game:
    """Random payoffs in [-PAYOFF_SCALE, PAYOFF_SCALE] with random CPT (or EUT) preferences."""
    n = len(sizes)
    payoffs = rng.uniform(-PAYOFF_SCALE, PAYOFF_SCALE, size=(n,) + tuple(sizes))
    actions = [tuple(str(k) for k in range(s)) for s in sizes]
    prefs = tuple(random_preferences(rng, eut=eut) for _ in range(n))
    return Game(actions, payoffs, prefs)


def random_distribution(rng: np.random.Generator, shape: tuple[int, ...]) -> JointDistribution:
    w = rng.dirichlet(np.ones(int(np.prod(shape))))
    return JointDistribution.from_flat(w, shape)


def canonical_replay_instance() -> tuple:
    """Mediator for the cycle-average distribution plus its repair lists.

    The constructed mediator's column-player signals share a point-mass
    assessment while prescribing different columns, so the replay needs
    perturbation points.  The column player is indifferent, making every
    opponent mix an acceptance-region point; the supplied lists approach
    the shared assessment geometrically and are pairwise distinct (odd
    multiplier times a power of two is unique).
    """
    game = counterexample_game()
    mu = JointDistribution(cycle_average_distribution())
    witnesses = {(0, 0): [(0.5, ODD_MIX), (0.5, EVEN_MIX)]}
    for c in range(4):
        witnesses[(1, c)] = [(1.0, np.array([1.0, 0.0]))]
    mg, sigma = construct_mediator(game, mu, witnesses)
    n_idx = 2  # column player's witness indices per action
    repair = {}
    for rank, col in enumerate((1, 2, 3)):
        odd = 2 * rank + 1
        b = col * n_idx  # supported signal (col, witness 0)
        repair[(1, b)] = [
            np.array([1.0 - 1e-4 * odd * 2.0 ** (-l), 1e-4 * odd * 2.0 ** (-l)])
            for l in range(8)
        ]
    return game, mu, mg, sigma, repair


def _scenario_example1(config: RunConfig, variant: str) -> dict:
    trace, report = scripted_cycle_run(
        variant, config.T, resolution=config.grid_resolution, tol=config.tol,
        seed=config.seed,
    )
    if config.out:
        write_trace_jsonl(trace, Path(config.out) / "trace.jsonl")
    return report


def _scenario_example2(config: RunConfig) -> dict:
    ex = config.extras
    t_block = ex.get("T_block", 5)
    k = ex.get("k", 2)
    runs = ex.get("runs", 200)
    eps_tilde = float(ex.get("eps_tilde", 0.004))
    families = ex.get("families", ["always-top", "always-bottom", "calibrated"])
    out = {}
    for fam in families:
        probe = regret_tail_probe(
            probe_strategy_family(fam, config.forecaster_epsilon),
            t_block,
            k,
            runs,
            config.seed,
            eps_tilde=eps_tilde,
        )
        out[fam] = probe
    return {"families": out}


def _scenario_random_2x2(config: RunConfig) -> dict:
    ex = config.extras
    games = ex.get("games", 50)
    dists = ex.get("dists", 200)
    if games < 1 or dists < 1:
        raise ValueError("random-2x2 needs games >= 1 and dists >= 1")
    resolution = DEFAULT_GRID if config.grid_resolution is None else config.grid_resolution
    rng = np.random.default_rng(config.seed)
    agree = 0
    total = 0
    disagreements = []
    for g_idx in range(games):
        game = random_game(rng, (2, 2))
        for d_idx in range(dists):
            mu = random_distribution(rng, (2, 2))
            c = check_correlated_eq(game, mu, tol=config.tol)
            d = check_mediated_eq(game, mu, resolution=resolution, tol=config.tol)
            total += 1
            if c.member == d.member:
                agree += 1
            else:
                disagreements.append({"game": g_idx, "dist": d_idx})
    return {
        "games": games,
        "dists_per_game": dists,
        "grid_resolution": resolution,
        "agreement_rate": agree / total,
        "disagreements": disagreements,
    }


def _scenario_random(config: RunConfig) -> dict:
    ex = config.extras
    sizes = tuple(ex.get("sizes", (2, 2)))
    eut = ex.get("eut", False)
    rng = np.random.default_rng(config.seed)
    game = random_game(rng, sizes, eut=eut)
    strategies = [ForecastingBestReaction(config.forecaster_epsilon) for _ in sizes]
    trace = run_engine(game, strategies, config.T, config.seed)
    xi = trace.empirical()
    corr = check_correlated_eq(game, xi)
    med = check_mediated_eq(game, xi, resolution=config.grid_resolution, tol=config.tol)
    if config.out:
        write_trace_jsonl(trace, Path(config.out) / "trace.jsonl")
    return {
        "sizes": list(sizes),
        "calibration_scores": [max_calibration_score(trace, i) for i in range(game.n)],
        "correlated_verdict": corr.verdict,
        "correlated_margin": _json_margin(corr.margin),
        "mediated_verdict": med.verdict,
        "mediated_margin": _json_margin(med.margin),
    }


def _scenario_replay(config: RunConfig) -> dict:
    _, mu, mg, sigma, repair = canonical_replay_instance()
    scripts = construct_calibrated_replay(mg, sigma, config.T, repair_points=repair)
    return scripts.report


SCENARIOS = {
    "example1-2p": lambda cfg: _scenario_example1(cfg, "2p"),
    "example1-3p": lambda cfg: _scenario_example1(cfg, "3p"),
    "example2": _scenario_example2,
    "random-2x2": _scenario_random_2x2,
    "random": _scenario_random,
    "replay-canonical": _scenario_replay,
}


def run_scenario(config: RunConfig) -> dict:
    """Dispatch a config to its scenario and wrap the summary."""
    if config.scenario not in SCENARIOS:
        raise KeyError(f"unknown scenario {config.scenario!r}")
    if config.out:
        Path(config.out).mkdir(parents=True, exist_ok=True)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "result": SCENARIOS[config.scenario](config),
    }
    if config.out:
        dump_json(summary, Path(config.out) / "summary.json")
    return summary
