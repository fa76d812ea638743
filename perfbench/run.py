#!/usr/bin/env python3
"""Benchmark of cpt_games: one workload, one seed, a fixed amount of work.

    python3 perfbench/run.py --workload check-fresh --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--seconds`` sets the amount of work (a fixed number of rounds for each
value), not a time limit.  Wall times are divided by the machine's
slowdown measured with the calibration kernel of ``speed.py`` between ops.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  An op fails when
it raises or when its output fails a check; ``correct`` is false when some
op returned a wrong output.
"""

import os
import sys
import time

T_TOP = time.perf_counter()

# One BLAS/OpenMP thread: the default pool made forecaster play times
# spread by a quarter on a 2-core machine.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CPT_GAMES_THREADS", None)  # the probe's default fan-out

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Nominal seconds per round on a 2-core x86 VM; rounds = seconds / this.
ROUND_SECONDS = {"check-fresh": 1.2, "check-repeat": 1.3, "learn": 4.7, "script": 1.1}


def process_age() -> float:
    """Seconds since this process started, from /proc (0.0 where unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_TOP = process_age()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_program():
    """Import cpt_games from this checkout's src/, and only from there."""
    if not (SRC / "cpt_games" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'cpt_games'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cpt_games

    if Path(cpt_games.__file__).resolve().parent != SRC / "cpt_games":
        sys.exit(f"error: cpt_games imported from {cpt_games.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import workloads
    from speed import MAX_BURST, SpeedLog
    from tracer import Tracer

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    out_root = ROOT / ".perfbench-out" / f"run-{os.getpid()}"
    try:
        setup_speed = SpeedLog()
        plan = workloads.WORKLOADS[args.workload](args.seed, rounds, out_root,
                                                  setup_speed.sample)
        setup_s = AGE_AT_TOP + time.perf_counter() - T_TOP
        setup_speed.sample(least=MAX_BURST)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()

        speed = SpeedLog()
        speed.sample(least=MAX_BURST)
        outputs, spans, errors = [], [], 0
        for op in plan.ops:
            speed.sample()
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception:  # an op that raises counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
                errors += 1
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
        speed.sample(least=5)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            tracer.uninstall()
        problems = plan.check(outputs)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass

    wrong = [k for k, p in enumerate(problems) if p]
    for k in wrong[:10]:
        print(f"op {k} ({plan.ops[k].kind}): {'; '.join(problems[k][:3])}", file=sys.stderr)
    failed = errors + len(wrong)

    latencies = [(b - a) / speed.slowdown(a, b) for a, b in spans]
    print(f"machine slowdown: set-up {setup_speed.overall():.3f}, timed phase "
          f"{speed.overall():.3f}; normalized op time {math.fsum(latencies):.3f} s",
          file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics(time_scale=1.0 / speed.overall())
    else:
        metrics = {
            "setup_s": (setup_s / setup_speed.overall(), "s"),
            "ops_per_s": (len(latencies) / math.fsum(latencies), "ops/s"),
            "op_ms_p50": (float(np.median(latencies)) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not wrong,
        "attempted": len(plan.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
