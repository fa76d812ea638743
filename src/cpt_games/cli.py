"""Command-line interface.

    cpt-games eval PREFS LOTTERY            print the CPT value
    cpt-games check --game G --dist D --mode correlated|nash|mediated
    cpt-games simulate --config CFG [--out DIR]
    cpt-games replay --game MEDIATED --steps T [--out DIR]

Exit codes: check returns 0 for member, 1 for non-member, 3 for shape
mismatches, 2 for other errors; simulate returns 4 for unknown scenarios
and 2 for invalid config values; replay returns 5 on an assessment
collision.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .equilibrium import check_correlated_eq, check_mediated_eq, check_nash
from .fileio import (
    SCHEMA_VERSION,
    distribution_from_dict,
    dump_json,
    game_from_dict,
    load_json,
    lottery_from_dict,
    mediated_game_from_dict,
    to_json,
)
from .cpt import cpt_value, preferences_from_dict
from .games import ProductDistribution, marginal, product_join
from .harness import RunConfig, run_scenario
from .replay import AssessmentCollisionError, construct_calibrated_replay


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_eval(args) -> int:
    try:
        prefs_doc = load_json(args.prefs)
        lottery_doc = load_json(args.lottery)
    except (OSError, json.JSONDecodeError) as e:
        return _fail(f"cannot parse input: {e}", 2)
    try:
        prefs = preferences_from_dict(prefs_doc)
        lottery = lottery_from_dict(lottery_doc)
    except (KeyError, ValueError, TypeError) as e:
        return _fail(f"invalid input: {e}", 2)
    print(f"{cpt_value(lottery, prefs):.6f}")
    return 0


def _as_product(mu) -> ProductDistribution:
    factors = [marginal(mu, i) for i in range(mu.weights.ndim)]
    pd = ProductDistribution(factors)
    if np.max(np.abs(product_join(pd).weights - mu.weights)) > 1e-9:
        raise ValueError("distribution is not of product form")
    return pd


def cmd_check(args) -> int:
    # strict JSON cannot write a tolerance of inf or nan into the certificate
    if args.tol is not None and not np.isfinite(args.tol):
        return _fail(f"--tol must be finite: {args.tol}", 2)
    try:
        game = game_from_dict(load_json(args.game))
        mu = distribution_from_dict(load_json(args.dist))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        return _fail(f"cannot parse input: {e}", 2)
    if tuple(mu.shape) != game.shape:
        return _fail(
            f"distribution shape {tuple(mu.shape)} does not match game shape {game.shape}", 3
        )
    # each check keeps its own default tolerance unless --tol is given
    tol = {} if args.tol is None else {"tol": args.tol}
    try:
        if args.mode == "correlated":
            cert = check_correlated_eq(game, mu, **tol)
        elif args.mode == "nash":
            cert = check_nash(game, _as_product(mu), **tol)
        elif args.mode == "mediated":
            cert = check_mediated_eq(game, mu, resolution=args.grid, **tol)
        else:
            return _fail(f"unknown mode {args.mode!r}", 2)
        text = to_json({**cert.to_dict(), "schema_version": SCHEMA_VERSION, "mode": args.mode})
    except ValueError as e:
        return _fail(str(e), 2)
    print(text)
    return 0 if cert.member else 1


def cmd_simulate(args) -> int:
    try:
        cfg_doc = load_json(args.config)
        config = RunConfig.from_dict(cfg_doc)
    except (OSError, json.JSONDecodeError, TypeError, KeyError, ValueError) as e:
        return _fail(f"cannot parse config: {e}", 2)
    if args.out:
        config.out = args.out
    if args.seed is not None:
        config.seed = args.seed
    try:
        text = to_json(run_scenario(config))
    except KeyError as e:
        return _fail(f"unknown scenario: {e}", 4)
    except ValueError as e:
        return _fail(str(e), 2)
    print(text)
    return 0


def cmd_replay(args) -> int:
    try:
        mg, sigma, repair = mediated_game_from_dict(load_json(args.game))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        return _fail(f"cannot parse mediated game: {e}", 2)
    try:
        scripts = construct_calibrated_replay(
            mg, sigma, args.steps, repair_points=repair or None
        )
    except AssessmentCollisionError as e:
        return _fail(str(e), 5)
    except ValueError as e:
        return _fail(str(e), 2)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {"steps": args.steps, "game": str(args.game)},
        "result": scripts.report,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(report, out / "replay.json")
    print(to_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cpt-games", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="CPT value of a lottery under preferences")
    pe.add_argument("prefs", help="preferences JSON file")
    pe.add_argument("lottery", help="lottery JSON file")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("check", help="equilibrium membership of a distribution")
    pc.add_argument("--game", required=True)
    pc.add_argument("--dist", required=True)
    pc.add_argument("--mode", default="correlated", choices=["correlated", "nash", "mediated"])
    pc.add_argument("--grid", type=int, default=None, help="sampling resolution")
    pc.add_argument("--tol", type=float, default=None)
    pc.set_defaults(func=cmd_check)

    ps = sub.add_parser("simulate", help="run a scenario from a config file")
    ps.add_argument("--config", required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("replay", help="calibrated replay of a mediated game")
    pr.add_argument("--game", required=True, help="mediated-game JSON file")
    pr.add_argument("--steps", "-T", type=int, required=True)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_replay)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
