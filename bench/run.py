#!/usr/bin/env python3
"""GLDN benchmark.

    python3 bench/run.py                       # every workload BENCHMARK.json names, one after another
    python3 bench/run.py --workload train_paper_b1 --seed 3 --seconds 20 --trace 0

With one workload the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones. The line
before it records the environment. The full record, with step times and
losses, is written to `.bench_work/` in the repository root. The exit code
is 1 when an output check fails and 2 when `src/gldn` is missing.

The package is imported from `src/` next to this directory; nothing is
installed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 900


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workload_names, help="run only this workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-step", action="store_true", help=argparse.SUPPRESS)  # see harness.fresh_first_steps
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_one(args, workload) -> int:
    import harness

    record = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    env = harness.environment(ROOT)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, steps=record["steps"])
    out = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, **record}, indent=1))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload BENCHMARK.json names in its own process, one at a time
    (peak RSS is per process)."""
    status = 0
    for name in [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        print(f"{name}: exit {proc.returncode}, correct {result and result['correct']}, "
              f"{result and result['failed']}/{result and result['attempted']} steps failed")
        for metric, m in (result or {}).get("metrics", {}).items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    if not (SRC / "gldn" / "__init__.py").is_file():
        print(f"gldn sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    if args.first_step:
        import harness

        sys.stdout.buffer.write(pickle.dumps(harness.first_step(*pickle.load(sys.stdin.buffer))))
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
