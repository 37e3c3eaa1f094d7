#!/usr/bin/env python3
"""Single-parameter robustness study around the v1 baseline setup on the
full compressed acquisition: sweeps the normalized regularization weight,
the metric norm kind, and the PAN blur diameter, one report row per point.

Usage:
    python3 scripts/parameter_sweep.py [--size 64] [--bands 4]
        [--iters 250] [--seed 11] [--out sweep.csv]
"""

import argparse

from mrcakit.formation import formation_preset
from mrcakit.harness import PipelineSpec, run_sweep
from mrcakit.metrics import write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--bands", type=int, default=4)
    ap.add_argument("--iters", type=int, default=250,
                    help="cap on the solver iterations of each jodefu solve")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    base = PipelineSpec(
        formation=formation_preset("mrca", args.size, args.size, args.bands,
                                   noise_sigma=0.01),
        method="jodefu-v1", lambda_bar=1e-3, iters=args.iters, seed=args.seed)

    axes = [
        ("lambda_bar", [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 1e-1]),
        ("norm_kind", ["l221", "l111", "s1l1"]),
        ("rho_b", [1.0, 1.2, 1.4, 1.6, 2.0]),
    ]
    rows = []
    for axis, values in axes:
        print(f"-- sweeping {axis} --")
        for value, row in zip(values, run_sweep(base, axis, values)):
            rows.append(row)
            print(f"{axis}={value!s:8} ssim={row.ssim:.4f} "
                  f"psnr={row.psnr:6.2f} sam={row.sam:6.3f}")
    write_report(args.out, rows, "csv")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
