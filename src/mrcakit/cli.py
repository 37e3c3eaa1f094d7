"""Command-line interface.

Subcommands: ``simulate`` (acquire an observation from a reference or
synthetic cube), ``reconstruct`` (invert a saved observation),
``evaluate`` (compare two cubes), ``pipeline`` (all steps end to end) and
``masks`` (write built-in mask tiles).  Exits 0 on success, 1 with a
diagnostic on any failure, 2 on bad flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .datacube import DataCube, read_datacube, write_datacube
from .formation import PAN_BLUR_PRESETS, PRESET_NAMES, FormationPreset, formation_preset
from .harness import (
    METHODS,
    PipelineSpec,
    evaluate,
    load_reference,
    read_observation,
    read_preset,
    reconstruct,
    run_pipeline,
    simulate,
    write_observation,
)
from .masks import BUILTIN_TILES, builtin_tile, parse_mask_file, write_mask_file
from .metrics import compression_ratio, write_report
from .regularizers import NORM_KINDS


def _add_formation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formation", default="mrca", choices=PRESET_NAMES)
    p.add_argument("--mask", default=None,
                   help="mask name (bayer, quad4, bt4pan, bt8pan, random) or tile file path")
    p.add_argument("--ni", type=int, default=64)
    p.add_argument("--nj", type=int, default=64)
    p.add_argument("--nk", type=int, default=4)
    p.add_argument("--ratio", type=int, default=None,
                   help="LRI resolution ratio of an mrca or multires device (default 2)")
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="noise std as a fraction of the dynamic range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho-b", type=float, default=None,
                   help="Butterworth blur diameter (px) on the PAN samples of an mrca device")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="jodefu-v1", choices=METHODS)
    p.add_argument("--lambda-bar", type=float, default=1e-3)
    p.add_argument("--iters", type=int, default=250,
                   help="cap on the solver iterations; a solve stops earlier once "
                        "its residuals have converged")
    p.add_argument("--norm", default=None, choices=NORM_KINDS)
    p.add_argument("--equalize", action="store_true",
                   help="equalize LRI sample statistics to the HRI samples first")


def _preset_from_args(args) -> FormationPreset:
    overrides = dict(noise_sigma=args.noise_sigma, seed=args.seed)
    if args.mask is not None:
        overrides["mask"] = args.mask
    if args.ratio is not None:
        overrides["ratio"] = args.ratio
    if args.rho_b is not None:
        if args.formation not in PAN_BLUR_PRESETS:
            raise ValueError(f"--rho-b: the {args.formation} formation applies no PAN blur")
        overrides.update(hri_blur="butterworth", rho_b=args.rho_b)
    return formation_preset(args.formation, args.ni, args.nj, args.nk, **overrides)


def _solver_fields(args) -> dict:
    return dict(method=args.method, lambda_bar=args.lambda_bar, iters=args.iters,
                norm_kind=args.norm, equalize=args.equalize)


def _cmd_simulate(args) -> int:
    reference, device, _ = load_reference(_preset_from_args(args), args.inp or "synthetic",
                                          args.seed)
    model, y = simulate(device, reference, args.seed)
    write_observation(args.out, model, y, reference.rho)
    if not args.inp:
        write_datacube(args.out + "_reference", reference)
    print(f"wrote observation {args.out} ({model.op.output_shape}, "
          f"compression ratio {compression_ratio(device):.3f})")
    return 0


def _cmd_reconstruct(args) -> int:
    model, y, rho = read_observation(args.inp, args.preset)
    spec = PipelineSpec(formation=model.preset, **_solver_fields(args))
    xhat = reconstruct(spec, model, y, rho)
    write_datacube(args.out, DataCube(xhat, rho=rho))
    print(f"wrote estimate {args.out} {xhat.shape}")
    return 0


def _cmd_evaluate(args) -> int:
    rho_c = compression_ratio(read_preset(args.preset)) if args.preset else 1.0
    row = evaluate(read_datacube(args.ref), read_datacube(args.est),
                   os.path.basename(args.ref), args.formation or "-",
                   args.reconstruction or "-", None, rho_c)
    write_report(args.out, [row], args.report)
    print(f"ssim={row.ssim:.4f} psnr={row.psnr:.2f} sam={row.sam:.3f} -> {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    spec = PipelineSpec(
        formation=_preset_from_args(args),
        dataset=args.inp or "synthetic",
        seed=args.seed,
        out_dir=args.out,
        report_format=args.report,
        **_solver_fields(args),
    )
    result = run_pipeline(spec)
    r = result.report
    print(f"{r.dataset} {r.formation} {r.reconstruction}: "
          f"ssim={r.ssim:.4f} psnr={r.psnr:.2f} sam={r.sam:.3f} rho_c={r.compression_ratio:.3f}")
    return 0


def _cmd_masks(args) -> int:
    tile = parse_mask_file(args.file) if args.file else builtin_tile(args.name)
    if args.out:
        write_mask_file(args.out, tile)
        print(f"wrote {args.out}")
    else:
        th, tw = tile.period
        print(f"{th} {tw} {tile.nchannels}")
        for row in tile.cells:
            print(" ".join(f"{v:2d}" for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcakit",
        description="Simulate compressed multiresolution acquisitions and reconstruct them.")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviated flags: a retired flag (--rho) must not pass for another (--rho-b)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("simulate", help="apply a formation model to a cube")
    _add_formation_flags(p)
    p.add_argument("--in", dest="inp", default=None, help="reference datacube stem")
    p.add_argument("--out", required=True, help="observation output stem")
    p.set_defaults(func=_cmd_simulate)

    p = command("reconstruct", help="invert a saved observation")
    p.add_argument("--in", dest="inp", required=True, help="observation stem")
    p.add_argument("--preset", default=None, help="formation preset file (default: <in>.preset)")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="estimate output stem")
    p.set_defaults(func=_cmd_reconstruct)

    p = command("evaluate", help="compare an estimate against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--preset", default=None, help="formation preset file for the compression ratio")
    p.add_argument("--formation", default=None)
    p.add_argument("--reconstruction", default=None)
    p.add_argument("--report", default="csv", choices=("csv", "json"))
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=_cmd_evaluate)

    p = command("pipeline", help="simulate, reconstruct and evaluate in one go")
    _add_formation_flags(p)
    _add_solver_flags(p)
    p.add_argument("--in", dest="inp", default=None, help="reference datacube stem")
    p.add_argument("--out", default=None, help="artifact directory")
    p.add_argument("--report", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_pipeline)

    p = command("masks", help="print or write mask tiles")
    p.add_argument("--name", default="bayer", choices=sorted(set(BUILTIN_TILES)))
    p.add_argument("--file", default=None, help="tile file to read instead of a built-in")
    p.add_argument("--out", default=None, help="tile file to write")
    p.set_defaults(func=_cmd_masks)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
