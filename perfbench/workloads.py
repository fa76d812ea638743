"""The benchmark's workloads: inputs from a seed, ops, warm-up and checks.

Each ``build_*`` function makes every input of a run from ``seed`` and the
number of rounds, warms up (calling ``tick`` between warm-up steps, where
the runner samples the machine's speed), and returns a ``Plan``.  A round
is a fixed list of op kinds whose inputs are drawn anew, so every run
attempts whole rounds of the same operations.  Ops call the program
through module attributes (``equilibrium.check_mediated_eq``), which is
where the tracer puts its wrappers.  ``Plan.check`` runs after the timed phase and returns
the problems of each op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from cpt_games import cpt, engine, equilibrium, games, harness, replay, scripted

import checks
import reference as ref

EPSILON = 0.1  # forecaster grid pitch: grids of 11, 66 and 286 forecasts
T_BLOCK, BLOCK_K = 5, 2  # block adversary of Example 2: horizon 2 * 5**3 = 250
FIXED_GAMES_SEED = 1804_08005  # the 2x2x2 games of check-repeat do not vary with --seed

KINDS = ("power-prelec", "identity-prelec", "eut", "power-tabulated")
CPT_KINDS = ("power-prelec", "identity-prelec", "power-tabulated")
TABULATED_AT = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass
class Op:
    kind: str
    fn: Callable  # () -> output
    ctx: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    check_op: Callable  # (op, output) -> problems
    check_run: Callable | None = None  # (ops, outputs) -> {op index: problems}

    def check(self, outputs: list) -> list[list[str]]:
        problems = []
        for op, out in zip(self.ops, outputs):
            try:
                problems.append([] if out is None else self.check_op(op, out))
            except Exception as exc:  # a malformed output is a wrong output
                problems.append([f"check raised {exc!r}"])
        if self.check_run is not None:
            for k, extra in self.check_run(self.ops, outputs).items():
                problems[k] += extra
        return problems


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_prefs(rng: np.random.Generator, kind: str) -> cpt.CptPreferences:
    if kind == "eut":
        return cpt.eut_preferences()
    reference = float(rng.uniform(-0.25, 0.25))
    if kind.startswith("power"):
        value = cpt.piecewise_power_value(
            reference, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.5)
        )
    else:
        value = cpt.identity_value(reference)
    if kind.endswith("tabulated"):
        weights = []
        for _ in range(2):
            w = cpt.prelec_weighting(rng.uniform(0.4, 1.0))
            weights.append(cpt.tabulated_weighting([(p, w(p)) for p in TABULATED_AT]))
    else:
        weights = [cpt.prelec_weighting(rng.uniform(0.4, 1.0)) for _ in range(2)]
    return cpt.CptPreferences(value, weights[0], weights[1])


def make_game(rng: np.random.Generator, sizes, kinds) -> tuple[games.Game, ref.RefGame]:
    """Random payoffs in [-1, 1]; one preference kind per player."""
    payoffs = rng.uniform(-1.0, 1.0, size=(len(sizes),) + tuple(sizes))
    prefs = [make_prefs(rng, k) for k in kinds]
    actions = [tuple(str(a) for a in range(s)) for s in sizes]
    return games.Game(actions, payoffs, prefs), ref_game(payoffs, prefs)


def ref_game(payoffs, prefs) -> ref.RefGame:
    return ref.RefGame(payoffs, [ref.ref_prefs(p) for p in prefs])


def outer(factors) -> np.ndarray:
    joint = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        joint = np.multiply.outer(joint, f)
    return joint


def one_hot(size: int, k: int) -> np.ndarray:
    v = np.zeros(size)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# membership queries (check-fresh, check-repeat)
# ---------------------------------------------------------------------------


def run_query(game, weights, factors, cache) -> dict:
    """Correlated, Nash (for product queries) and mediated checks of one distribution."""
    mu = games.JointDistribution(weights)
    out = {"corr": equilibrium.check_correlated_eq(game, mu)}
    if factors is not None:
        out["nash"] = equilibrium.check_nash(game, games.ProductDistribution(factors))
    out["med"] = equilibrium.check_mediated_eq(game, mu, region_cache=cache)
    return out


def query_op(kind, game, rgame, weights, factors, cache, **flags) -> Op:
    ctx = {"game": rgame, "weights": weights, "factors": factors, **flags}
    return Op(kind, partial(run_query, game, weights, factors, cache), ctx)


def check_query_op(op: Op, out: dict) -> list[str]:
    ctx = op.ctx
    problems = checks.check_query(ctx["game"], ctx["weights"], out, ctx["factors"])
    if ctx.get("cycle_average"):
        problems += checks.check_example1(
            out["corr"].member, out["corr"].margin, out["med"].member
        )
    if ctx.get("pure_nash") and not (out["corr"].member and out["nash"].member):
        problems.append("pure-Nash point mass is not a Nash and correlated member")
    return problems


def interior(rng, shape) -> np.ndarray:
    return rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)


FRESH_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
FRESH_QUERIES = ("first", "product", "sparse", "joint", "product", "sparse")
FRESH_CANDIDATES = 16


def sampling_joint(rng, rgame: ref.RefGame) -> np.ndarray:
    """The Dirichlet(1) joint, of FRESH_CANDIDATES draws, whose conditionals
    fail the reference region test for the most (player, action) pairs.

    As a game's first query it makes the mediated check sample nearly every
    region at once, so the cost of a game and the share of dear queries
    vary little with the seed.
    """
    candidates = [interior(rng, rgame.shape) for _ in range(FRESH_CANDIDATES)]
    fails = np.zeros(FRESH_CANDIDATES, dtype=int)
    for i in range(rgame.n):
        for a in range(rgame.shape[i]):
            conds = np.array([ref.conditional(w, i, a) for w in candidates])
            fails += rgame.region_slack(i, a, conds) < -checks.HULL_TOL
    return candidates[int(np.argmax(fails))]


def build_check_fresh(seed: int, rounds: int, out_root: Path, tick=lambda: None) -> Plan:
    """New games each round, one per shape, six queries per game.

    The first query of a game is chosen to need nearly every region (see
    ``sampling_joint``); the other five mostly reuse the game's cache.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for r in range(rounds):
        for s, shape in enumerate(FRESH_SHAPES):
            kinds = [KINDS[(r + s + i) % len(KINDS)] for i in range(len(shape))]
            game, rgame = make_game(rng, shape, kinds)
            cache: dict = {}
            for kind in FRESH_QUERIES:
                factors = None
                if kind == "first":
                    weights = sampling_joint(rng, rgame)
                elif kind == "joint":
                    weights = interior(rng, shape)
                elif kind == "product":
                    factors = [rng.dirichlet(np.ones(k)) for k in shape]
                    weights = outer(factors)
                else:
                    size = int(np.prod(shape))
                    support = rng.choice(size, size=max(2, size // 2), replace=False)
                    weights = np.zeros(size)
                    weights[support] = rng.dirichlet(np.ones(support.size))
                    weights = weights.reshape(shape)
                ops.append(query_op(kind, game, rgame, weights, factors, cache))
    # warm-up: one query on a game outside the measured stream
    game, _ = make_game(np.random.default_rng([seed, 2]), (2, 2), KINDS[:2])
    run_query(game, np.full((2, 2), 0.25), None, {})
    return Plan(ops, check_query_op)


REPEAT_LAMBDAS = np.linspace(0.0, 1.0, 60)
REPEAT_RANDOM_PER_GAME = 10
REPEAT_RANDOM_CONCENTRATION = 16.0  # Dirichlet parameter of the random interior queries
REPEAT_WARMUP_PER_GAME = 6


def build_check_repeat(seed: int, rounds: int, out_root: Path, tick=lambda: None) -> Plan:
    """Fixed games with warm region caches; fixed and random queries each round."""
    fixed = np.random.default_rng(FIXED_GAMES_SEED)
    g24 = scripted.counterexample_game()
    fixed_games = [(g24, ref_game(g24.payoffs, g24.prefs))]
    for kinds in (("power-prelec",) * 3, ("identity-prelec", "eut", "power-tabulated")):
        fixed_games.append(make_game(fixed, (2, 2, 2), kinds))
    caches = [{} for _ in fixed_games]

    standing = []  # queries repeated every round
    for lam in REPEAT_LAMBDAS:
        f = [np.array([1.0, 0.0]), lam * scripted.ODD_MIX + (1.0 - lam) * scripted.EVEN_MIX]
        standing.append(("lambda", 0, f, {}))
    cycle = [np.array([1.0, 0.0]), scripted.UNIFORM_MIX]
    standing.append(("cycle", 0, cycle, {"cycle_average": True}))
    for g, (game, rgame) in enumerate(fixed_games):
        for prof in ref.pure_nash_profiles(rgame.payoffs):
            f = [one_hot(s, a) for s, a in zip(game.shape, prof)]
            standing.append(("pure-nash", g, f, {"pure_nash": True}))

    # warm-up through the public path: fill every region cache
    for g, (game, _) in enumerate(fixed_games):
        for _ in range(REPEAT_WARMUP_PER_GAME):
            run_query(game, interior(fixed, game.shape), None, caches[g])
            tick()
    for kind, g, f, _ in standing:
        run_query(fixed_games[g][0], outer(f), f, caches[g])
        tick()

    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(rounds):
        for kind, g, f, flags in standing:
            game, rgame = fixed_games[g]
            ops.append(query_op(kind, game, rgame, outer(f), f, caches[g], **flags))
        for g, (game, rgame) in enumerate(fixed_games):
            for _ in range(REPEAT_RANDOM_PER_GAME):
                size = int(np.prod(game.shape))
                weights = rng.dirichlet(np.full(size, REPEAT_RANDOM_CONCENTRATION))
                ops.append(query_op("random", game, rgame, weights.reshape(game.shape), None,
                                    caches[g]))
    return Plan(ops, check_query_op)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


# Per round: five 2x2 plays cheaper than the four 2x3 plays, and four probes
# plus a 2x2x2 play dearer, so the median op is a 2x3 play.  Forecasts on
# grids of 286 (probes, 2x2x2 plays) take q x q temporaries of 650 KB,
# whose cost swings with the allocator's state; the 2x3 plays' largest
# grid is 66, so the median does not swing with it.
LEARN_PLAYS = (  # sizes, preference family, horizon
    ((2, 2), "cpt", 600),
    ((2, 2), "eut", 600),
    ((2, 2), "cpt", 600),
    ((2, 2), "eut", 600),
    ((2, 2), "cpt", 600),
    ((2, 3), "cpt", 1500),
    ((2, 3), "eut", 1500),
    ((2, 3), "cpt", 1500),
    ((2, 3), "eut", 1500),
    ((2, 2, 2), "cpt", 100),
)
LEARN_PROBES_PER_ROUND = 4


def run_play(game, T: int, seed: int) -> dict:
    """Forecaster-driven play as the ``random`` scenario runs it."""
    strategies = [engine.ForecastingBestReaction(EPSILON) for _ in game.shape]
    trace = engine.run_engine(game, strategies, T, seed)
    return {
        "trace": trace,
        "corr": equilibrium.check_correlated_eq(game, trace.empirical()),
        "scores": [engine.max_calibration_score(trace, i) for i in range(game.n)],
    }


def run_probe(family: str, seed: int) -> dict:
    factory = scripted.probe_strategy_family(family, EPSILON)
    return scripted.regret_tail_probe(factory, T_BLOCK, BLOCK_K, 1, seed)


def rerun_probe(family: str, seed: int):
    """The probe's single run again (run index 0 plays seed + 0), for its trace."""
    factory = scripted.probe_strategy_family(family, EPSILON)
    strategies = [factory(), scripted.block_adversary(T_BLOCK)]
    horizon = 2 * T_BLOCK ** (BLOCK_K + 1)
    return engine.run_engine(scripted.counterexample_game(), strategies, horizon, seed,
                             checkpoints=False)


def check_play(op: Op, out: dict) -> list[str]:
    rgame, eut = op.ctx["game"], op.ctx["eut"]
    trace = out["trace"]
    problems = []
    for i in range(rgame.n):
        problems += checks.check_best_reactions(
            rgame, i, trace.actions[:, i], trace.assessment_ids[i], trace.assessment_dicts[i]
        )
    problems += checks.check_checkpoints(
        rgame, trace.actions, trace.checkpoints, eut=range(rgame.n) if eut else ()
    )
    counts = np.zeros(rgame.shape)
    np.add.at(counts, tuple(trace.actions.T), 1.0)
    checks.check_margin(problems, "final correlated", out["corr"].member, out["corr"].margin,
                        ref.correlated_margin(rgame, counts / trace.horizon), checks.CORR_TOL)
    recomputed = [
        checks.max_score([trace.assessment_dicts[i][k] for k in trace.assessment_ids[i]],
                         trace.actions, rgame.shape, i)
        for i in range(rgame.n)
    ]
    problems += checks.check_scores(out["scores"], recomputed)
    return problems


def check_probe_op(op: Op, out: dict) -> list[str]:
    trace = rerun_probe(op.ctx["family"], op.ctx["seed"])
    rgame = op.ctx["game"]
    problems = checks.check_probe(rgame, out, trace.actions, T_BLOCK, BLOCK_K)
    if op.ctx["family"] == "calibrated":
        problems += checks.check_best_reactions(
            rgame, 0, trace.actions[:, 0], trace.assessment_ids[0], trace.assessment_dicts[0]
        )
    return problems


def build_learn(seed: int, rounds: int, out_root: Path, tick=lambda: None) -> Plan:
    rng = np.random.default_rng([seed, 4])
    g24 = scripted.counterexample_game()
    r24 = ref_game(g24.payoffs, g24.prefs)
    ops = []
    for r in range(rounds):
        for s, (sizes, family, T) in enumerate(LEARN_PLAYS):
            kinds = [
                "eut" if family == "eut" else CPT_KINDS[(r + s + i) % len(CPT_KINDS)]
                for i in range(len(sizes))
            ]
            game, rgame = make_game(rng, sizes, kinds)
            run_seed = int(rng.integers(1 << 31))
            kind = "play-" + "x".join(map(str, sizes))
            ops.append(Op(kind, partial(run_play, game, T, run_seed),
                          {"game": rgame, "eut": family == "eut"}))
        for _ in range(LEARN_PROBES_PER_ROUND):
            probe_seed = int(rng.integers(1 << 31))
            ops.append(Op("probe-calibrated", partial(run_probe, "calibrated", probe_seed),
                          {"game": r24, "family": "calibrated", "seed": probe_seed}))
    game, _ = make_game(np.random.default_rng([seed, 5]), (2, 3), KINDS[:2])
    run_play(game, 20, 0)  # warm-up: forecaster, engine and solver paths

    def check_op(op, out):
        return check_probe_op(op, out) if op.kind.startswith("probe") else check_play(op, out)

    return Plan(ops, check_op)


# ---------------------------------------------------------------------------
# script
# ---------------------------------------------------------------------------


SCRIPT_T_2P = 4000  # multiples of 4: a whole number of column cycles
SCRIPT_T_3P = 2000
SCRIPT_T_REPLAY = 8000
SCRIPT_PROBES_PER_FAMILY = 12
SCRIPT_GRID_2P = 8
SCORE_BOUND = 0.01
TAIL_FREQUENCY_FLOOR = 0.1


def run_cycle(variant: str, T: int, seed: int, out_dir: Path) -> dict:
    config = harness.RunConfig(
        scenario=f"example1-{variant}", T=T, seed=seed, out=str(out_dir),
        grid_resolution=SCRIPT_GRID_2P if variant == "2p" else None,
    )
    return harness.run_scenario(config)


def run_replay(T: int) -> dict:
    _, mu, mg, sigma, repair = harness.canonical_replay_instance()
    scripts = replay.construct_calibrated_replay(mg, sigma, T, repair_points=repair)
    return {"mediator": mg.mediator.weights, "mu": mu.weights, "scripts": scripts}


def cycle_target(variant: str) -> np.ndarray:
    if variant == "2p":
        return outer([np.array([1.0, 0.0]), scripted.UNIFORM_MIX])
    target = np.zeros((2, 4, 4))
    for c in range(4):
        target[0, c, c] = 0.25
    return target


def check_cycle(op: Op, summary: dict) -> list[str]:
    variant, rgame = op.ctx["variant"], op.ctx["game"]
    result = summary["result"]
    header, records = checks.read_jsonl(Path(op.ctx["out_dir"]) / "trace.jsonl")
    problems = checks.check_trace_file(header, records)
    problems += checks.check_scores(
        result["calibration_scores"], checks.trace_calibration_scores(header, records), SCORE_BOUND
    )
    counts = np.zeros(rgame.shape)
    for rec in records:
        counts[tuple(rec["a"])] += 1.0
    xi = counts / len(records)
    gap = float(np.abs(xi - cycle_target(variant)).max())
    if variant == "2p" and len(records) % 4 == 0 and gap != 0.0:
        problems.append(f"2p empirical distribution misses the cycle average by {gap!r}")
    if variant == "3p" and gap > 1e-3:
        problems.append(f"3p empirical distribution is {gap!r} from its target")
    corr_member = result["correlated_verdict"] == "member"
    checks.check_margin(problems, "empirical correlated", corr_member,
                        result["correlated_margin"], ref.correlated_margin(rgame, xi), checks.CORR_TOL)
    problems += checks.check_example1(
        corr_member, result["correlated_margin"], result["mediated_verdict"] == "member"
    )
    return problems


def check_replay(op: Op, out: dict) -> list[str]:
    scripts, psi = out["scripts"], out["mediator"]
    T, n = scripts.actions.shape
    recomputed = [
        checks.max_score(scripts.assessments[i], scripts.actions, out["mu"].shape, i)
        for i in range(n)
    ]
    problems = checks.check_scores(scripts.report["calibration_scores"], recomputed, SCORE_BOUND)
    law = np.zeros(psi.shape)
    np.add.at(law, tuple(scripts.signals.T), 1.0)
    support = int(np.count_nonzero(psi))
    gap = float(np.abs(law / T - psi).max())
    if gap > support / T:
        problems.append(f"signal law is {gap!r} from psi, above |B|/T = {support / T!r}")
    return problems


def build_script(seed: int, rounds: int, out_root: Path, tick=lambda: None) -> Plan:
    rng = np.random.default_rng([seed, 6])
    g24, g3p = scripted.counterexample_game(), scripted.counterexample_game_3p()
    refs = {"2p": ref_game(g24.payoffs, g24.prefs), "3p": ref_game(g3p.payoffs, g3p.prefs)}
    ops = []
    for r in range(rounds):
        for variant, T in (("2p", SCRIPT_T_2P), ("3p", SCRIPT_T_3P)):
            out_dir = out_root / f"{variant}-{r}"
            run_seed = int(rng.integers(1 << 31))
            ops.append(Op(f"cycle-{variant}", partial(run_cycle, variant, T, run_seed, out_dir),
                          {"variant": variant, "game": refs[variant], "out_dir": out_dir}))
        ops.append(Op("replay", partial(run_replay, SCRIPT_T_REPLAY)))
        for family in ("always-top", "always-bottom"):
            for _ in range(SCRIPT_PROBES_PER_FAMILY):
                probe_seed = int(rng.integers(1 << 31))
                ops.append(Op(f"probe-{family}", partial(run_probe, family, probe_seed),
                              {"game": refs["2p"], "family": family, "seed": probe_seed}))
    run_cycle("2p", 8, 0, out_root / "warm-up")  # warm-up: scenario, engine and file paths

    def check_op(op, out):
        if op.kind.startswith("cycle"):
            return check_cycle(op, out)
        if op.kind == "replay":
            return check_replay(op, out)
        return check_probe_op(op, out)

    def check_run(ops, outputs):
        """Example 2: each fixed family's tail-event frequency over the run exceeds 0.1."""
        extra = {}
        for family in ("always-top", "always-bottom"):
            idx = [k for k, op in enumerate(ops) if op.kind == f"probe-{family}"]
            idx = [k for k in idx if outputs[k] is not None]
            freq = sum(outputs[k]["frequency"] for k in idx) / max(len(idx), 1)
            if idx and freq <= TAIL_FREQUENCY_FLOOR:
                for k in idx:
                    extra[k] = [f"{family} tail frequency {freq!r} <= {TAIL_FREQUENCY_FLOOR}"]
        return extra

    return Plan(ops, check_op, check_run)


WORKLOADS = {
    "check-fresh": build_check_fresh,
    "check-repeat": build_check_repeat,
    "learn": build_learn,
    "script": build_script,
}
