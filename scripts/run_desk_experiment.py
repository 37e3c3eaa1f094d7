#!/usr/bin/env python3
"""Desk-scale comparison of the reconstruction methods on one synthetic
scene: simulates the full compressed acquisition (plus the plain mosaic,
multiresolution and coded-aperture variants) and prints a quality table
per method: baseline, jodefu-v1 and jodefu-v2 for each of the four
shipped formations.

Each row is one ``run_pipeline`` call with the same ``--seed``, which
derives both the scene and the noise draw.  Every reconstruction uses the
model of the device it is given, and ``run_pipeline`` simulates the
preset plus the PAN blur the method models on a formation that applies
one: the mrca jodefu-v2 row therefore sees a device with a 1.4 px
Butterworth PAN blur, and a different observation than the baseline and
jodefu-v1 rows, by design.  The cfa, cassi and multires devices apply no
PAN blur, so their three rows share one observation.  They also share one
device build and one baseline: ``run_pipeline`` reuses the last
acquisition it made when the next row has the same device and seed and
loads the same reference samples, so 7 of the 12 rows (every row after
the first of its device) skip the build, the noise draw and the
interpolation, with rows bitwise equal to fresh runs.

Usage:
    python3 scripts/run_desk_experiment.py [--size 64] [--bands 4]
        [--noise 0.01] [--iters 250] [--seed 11] [--out report.csv]
"""

import argparse

from mrcakit.formation import formation_preset
from mrcakit.harness import PipelineSpec, run_pipeline
from mrcakit.metrics import write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--bands", type=int, default=4)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--iters", type=int, default=250,
                    help="cap on the solver iterations of each jodefu solve")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default=None, help="optional report file (csv)")
    args = ap.parse_args()

    n, nk = args.size, args.bands
    formations = {
        "mrca": formation_preset("mrca", n, n, nk, noise_sigma=args.noise),
        "cfa": formation_preset("cfa", n, n, nk, noise_sigma=args.noise),
        "multires": formation_preset("multires", n, n, nk, noise_sigma=args.noise),
        "cassi": formation_preset("cassi", n, n, nk, noise_sigma=args.noise),
    }

    rows = []
    print(f"{'formation':10s} {'method':11s} {'ssim':>7s} {'psnr':>7s} "
          f"{'sam':>7s} {'rho_c':>6s}")
    for fname, preset in formations.items():
        for method in ("baseline", "jodefu-v1", "jodefu-v2"):
            spec = PipelineSpec(formation=preset, method=method,
                                iters=args.iters, seed=args.seed)
            r = run_pipeline(spec).report
            rows.append(r)
            print(f"{fname:10s} {method:11s} {r.ssim:7.4f} {r.psnr:7.2f} "
                  f"{r.sam:7.3f} {r.compression_ratio:6.3f}")
    if args.out:
        write_report(args.out, rows, "csv")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
