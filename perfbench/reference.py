#!/usr/bin/env python3
"""Regenerate the long-run reference PSNRs of the time-to-quality workloads.

Each entry of ``references.json`` is the PSNR after 2000 iterations of one
workload at one noise seed, with the iteration count and the commit it
came from.  The benchmark only reads the table; this command is the only
thing that writes it, and it never runs inside a timed region.

Usage:
    python3 perfbench/reference.py --workload mrca256-v1 --seed 3
    python3 perfbench/reference.py --workload mrca128-v2   # every missing seed

To regenerate an existing entry, delete it from ``references.json`` first.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402


def compute(workload: str, seed: int) -> float:
    from mrcakit import DataCube, SolverConfig, jodefu_solve, psnr
    from problems import REFERENCE_ITERS, TTQ_CASES, make_scene, simulate, solver_inputs

    case = TTQ_CASES[workload]
    scene = make_scene(case.size)
    problem = simulate(case, scene, seed)
    L, g = solver_inputs(problem)
    # cost tracking never changes the iterates, so it stays off here
    cfg = SolverConfig(q_max=REFERENCE_ITERS, cost_stride=REFERENCE_ITERS)
    x, _ = jodefu_solve(problem.model.op, L, g, problem.y, cfg)
    return psnr(scene, DataCube(x, rho=scene.rho))


def store(workload: str, seed: int, entry: dict) -> None:
    """Add one entry under an exclusive lock, so parallel runs keep all."""
    from problems import REFERENCE_FILE

    with open(REFERENCE_FILE, "a+", encoding="ascii") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        text = fh.read()
        table = json.loads(text) if text.strip() else {}
        table.setdefault(workload, {})[str(seed)] = entry
        fh.seek(0)
        fh.truncate()
        fh.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main() -> int:
    bootstrap.prepare()
    from problems import (REFERENCE_FILE, REFERENCE_ITERS, REFERENCE_SEEDS, TTQ_CASES,
                          load_references)

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(TTQ_CASES))
    ap.add_argument("--seed", type=int, action="append",
                    help=f"noise seed in [0, {REFERENCE_SEEDS}); repeatable; "
                         "default: every missing one")
    args = ap.parse_args()

    table = load_references() if os.path.exists(REFERENCE_FILE) else {}
    seeds = args.seed if args.seed is not None else range(REFERENCE_SEEDS)
    for seed in seeds:
        if not 0 <= seed < REFERENCE_SEEDS:
            ap.error(f"seed {seed} outside [0, {REFERENCE_SEEDS})")
        if str(seed) in table.get(args.workload, {}):
            continue
        start = time.perf_counter()
        value = compute(args.workload, seed)
        store(args.workload, seed, {"psnr_db": value, "iters": REFERENCE_ITERS,
                                    "commit": bootstrap.git_commit()})
        print(f"{args.workload} seed {seed}: {value:.4f} dB "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
