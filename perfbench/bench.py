"""Workload runs, checks and metrics of the time-to-quality benchmark.

Import only after ``bootstrap.prepare()``; ``run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from mrcakit import (
    DataCube,
    LinearOp,
    SolverConfig,
    baseline_reconstruct,
    build_formation,
    butterworth_blur,
    jodefu_solve,
    mosaic,
    objective,
    power_iteration_norm,
    psnr,
    run_pipeline,
    spatial_convolve,
)
from mrcakit import harness
from mrcakit.formation import gaussian_blur_bank

import bootstrap
import problems
from tracing import Tracer, duration, traced_harness

SETUP_REPEATS = 5
TRACE_ITERS = 50
POWER_ITERS = 100
MICRO_REPEATS = 10

IMPORT_PROBE = ("import time; t = time.perf_counter(); import mrcakit; "
                "print(time.perf_counter() - t)")


# The calibration cube's side for each workload image size, and the scale
# of rescaled times for each side: about the calibration's median on the
# host the README's numbers come from (2 Xeon vCPUs), so rescaled times
# read close to its wall times there.  At 64x64 the calibration measures
# mostly numpy's per-call overhead, which followed desk64 worse than the
# 128x128 cube; at 256x256 it follows mrca256-v1 better than 128x128 does.
CALIB_SIDE = {64: 128, 128: 128, 256: 256}
CALIB_REF_S = {128: 0.020, 256: 0.038}
CALIB_INTERVAL_S = 0.5
# Each calibration transforms about this many pixels per band.
CALIB_PIXELS = 10 * 128 * 128


def _calibration_piece(cube: np.ndarray, loops: int) -> None:
    spectrum = np.fft.fft2(cube, axes=(0, 1))
    for _ in range(loops):
        back = np.fft.ifft2(spectrum * spectrum, axes=(0, 1)).real
        np.sqrt(back * back + cube * cube).sum()


def calibrate(cube: np.ndarray) -> float:
    """Seconds a fixed piece of work on ``cube`` takes now.

    The work is numpy FFTs and elementwise maths.  It runs no mrcakit code,
    so no change to the package moves it; only the speed of the host does.
    It runs twice and the second run is timed, so the caches the timed work
    left behind do not matter.
    """
    loops = -(-CALIB_PIXELS // (cube.shape[0] * cube.shape[1]))
    _calibration_piece(cube, loops)
    return timed(_calibration_piece, cube, loops)[0]


class HostClock:
    """Wall time rescaled to the reference host speed, for work on images
    of one size.

    On a shared machine the speed of the same code drifts by tens of
    percent within seconds to minutes, as other work competes for the
    cores and caches.  The clock runs the calibration when it is made and
    after each timed call, and ``tick`` runs it during a call once
    ``CALIB_INTERVAL_S`` have passed since the last one.  A call's time is
    its wall time, less the calibrations inside it, times the
    ``CALIB_REF_S`` of the cube's side over the median of the calibrations
    from just before the call to just after it.  The raw wall times and
    every calibration are kept.
    """

    def __init__(self, size: int):
        side = CALIB_SIDE[size]
        self._cube = np.random.default_rng(0).standard_normal((side, side, 4))
        self.ref = CALIB_REF_S[side]
        self.calibrations = [calibrate(self._cube)]
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._window = self.calibrations[-1:]
        self._paused = 0.0
        self._last = time.perf_counter()

    def _sample(self) -> None:
        self.calibrations.append(calibrate(self._cube))
        self._window.append(self.calibrations[-1])
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate now if the last calibration is ``CALIB_INTERVAL_S`` old;
        call often from inside long timed work."""
        if time.perf_counter() - self._last >= CALIB_INTERVAL_S:
            start = time.perf_counter()
            self._sample()
            self._paused += time.perf_counter() - start

    def time(self, fn, *args):
        """Rescaled wall time of ``fn(*args)``, and its result."""
        elapsed, result = timed(fn, *args)
        self._sample()
        work = elapsed - self._paused
        scaled = work * self.ref / statistics.median(self._window)
        self.wall.append(work)
        self.scaled.append(scaled)
        self._window = self.calibrations[-1:]
        self._paused = 0.0
        return scaled, result

    def ticking(self, op: LinearOp) -> LinearOp:
        """The same operator, ticking the clock before each forward apply."""
        def forward(x):
            self.tick()
            return op.apply(x)
        return LinearOp(op.input_shape, op.output_shape, forward, op.adjoint_apply,
                        op.norm_bound, name=op.name, parts=op.parts)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter.

    ``bootstrap.prepare`` has imported it in this process already, which
    compiles the bytecode of a fresh checkout before the first probe.
    """
    env = dict(os.environ, PYTHONPATH=bootstrap.SRC)

    def probe() -> float:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout)

    return statistics.median(probe() for _ in range(SETUP_REPEATS))


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class Run:
    """Operation counts and output checks of one benchmark run."""
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a tripped check makes it a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def valid_estimate(x, shape) -> bool:
    return x.shape == shape and bool(np.all(np.isfinite(x)))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, tracer=None):
    """Scene synthesis, formation build, simulate and noise for every case
    of the workload.  With a tracer, each stage gets its span."""

    def stage(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    cases = problems.DESK_CASES if workload == "desk64" else (problems.TTQ_CASES[workload],)
    index = problems.noise_seed_index(workload, seed)
    with stage("harness.scene"):
        scene = problems.make_scene(cases[0].size)
    out = []
    for case in cases:
        with stage("formation.build"):
            model = problems.build(case)
        with stage("harness.simulate"):
            y = problems.observe(model, scene, index)
        out.append(problems.Problem(case, model, y))
    return scene, out


def measure_setup(workload: str, seed: int):
    """``setup_s``: import time plus the median of repeated set-ups."""
    import_s = import_seconds()
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, (scene, probs) = timed(set_up, workload, seed)
        times.append(elapsed)
    return import_s + statistics.median(times), scene, probs


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------


def pipeline_pass(specs, clock: HostClock, pipeline=run_pipeline):
    """Rescaled wall time of one pass over the specs, and the results.
    The clock ticks between pipelines."""
    def one_pass():
        results = []
        for spec in specs:
            clock.tick()
            results.append(pipeline(spec))
        return results
    return clock.time(one_pass)


@contextlib.contextmanager
def ticking_solves(clock: HostClock):
    """Hand the solves ``run_pipeline`` starts the clock's ticking operator
    for the duration of the block, so the clock calibrates inside them."""
    solve = harness.jodefu_solve
    harness.jodefu_solve = lambda A, L, g, y, cfg=None: solve(clock.ticking(A), L, g, y, cfg)
    try:
        yield
    finally:
        harness.jodefu_solve = solve


def run_desk(seed: int, seconds: float, run: Run) -> tuple[dict, HostClock]:
    setup_s, scene, probs = measure_setup("desk64", seed)
    specs = [problems.pipeline_spec(p.case, seed, problems.DESK_ITERS) for p in probs]
    clock, pass_times, first_psnrs = HostClock(probs[0].case.size), [], None
    start = time.perf_counter()
    while len(pass_times) < 2 or time.perf_counter() - start < seconds:
        with ticking_solves(clock):
            elapsed, results = pipeline_pass(specs, clock)
        pass_times.append(elapsed)
        psnrs = [r.report.psnr for r in results]
        first_psnrs = first_psnrs or psnrs
        for prob, result, value, first in zip(probs, results, psnrs, first_psnrs):
            label = f"{prob.case.label} pass {len(pass_times)}"
            run.check(valid_estimate(result.estimate.values, prob.case.shape)
                      and np.array_equal(result.observation, prob.y)
                      and value == first,
                      f"{label}: estimate, observation or PSNR differs")
    jodefu = [v for p, v in zip(probs, first_psnrs) if p.case.method != "baseline"]
    return {
        "setup_s": setup_s,
        "iters": problems.DESK_ITERS * len(jodefu),
        "solve_s": statistics.median(pass_times),
        "psnr_db": statistics.fmean(jodefu),
        "psnr_min_db": min(jodefu),
    }, clock


class _Reached(Exception):
    pass


def probe(problem, scene, target_db: float, cap: int, run: Run):
    """Smallest ``q_max`` whose estimate reaches ``target_db``, and that
    estimate.  When no iterate within ``cap`` iterations reaches it, a
    failed check is recorded and ``cap`` and the solve's estimate are
    returned.

    The solve is watched only through the operator it is handed: every
    distinct array the operator is applied to is the next iterate, starting
    from the initial one.  The probe stops the solve at the first iterate
    that reaches the target.
    """
    A = problem.model.op
    seen = {"count": 0, "last": None}

    def forward(x):
        if seen["last"] is None or not np.array_equal(x, seen["last"]):
            iterate = seen["count"]
            seen["count"] += 1
            seen["last"] = x.copy()
            if iterate >= 1 and psnr(scene, DataCube(x, rho=scene.rho)) >= target_db:
                raise _Reached(iterate)
        return A.apply(x)

    watched = LinearOp(A.input_shape, A.output_shape, forward, A.adjoint_apply,
                       A.norm_bound, name=A.name, parts=A.parts)
    L, g = problems.solver_inputs(problem)
    try:
        # cost tracking never changes the iterates, so the probe skips it
        x, _ = jodefu_solve(watched, L, g, problem.y, SolverConfig(q_max=cap, cost_stride=cap))
    except _Reached as hit:
        run.check(True, "probe")
        return hit.args[0], seen["last"]
    run.check(False, f"probe: no iterate within {cap} iterations reached {target_db:.4f} dB")
    return cap, x


def run_ttq(workload: str, seed: int, seconds: float, run: Run) -> tuple[dict, HostClock]:
    target = problems.reference_psnr(workload, seed) - problems.TTQ_MARGIN_DB
    setup_s, scene, (problem,) = measure_setup(workload, seed)
    L, g = problems.solver_inputs(problem)
    iters, x_probe = probe(problem, scene, target, problems.REFERENCE_ITERS + 1, run)
    run.check(valid_estimate(x_probe, problem.case.shape), "probe estimate")

    clock, solve_times, psnrs = HostClock(problem.case.size), [], []
    A = clock.ticking(problem.model.op)
    start = time.perf_counter()
    while not solve_times or time.perf_counter() - start < seconds:
        elapsed, (x, _) = clock.time(jodefu_solve, A, L, g, problem.y, SolverConfig(q_max=iters))
        solve_times.append(elapsed)
        psnrs.append(psnr(scene, DataCube(x, rho=scene.rho)))
        run.check(valid_estimate(x, problem.case.shape) and psnrs[-1] >= target
                  and np.array_equal(x, x_probe),
                  f"timed solve {len(solve_times)}: estimate invalid, below "
                  f"{target:.4f} dB or not bitwise equal to the probe's")
    return {
        "setup_s": setup_s,
        "iters": iters,
        "solve_s": statistics.median(solve_times),
        "psnr_db": psnrs[0],
        "psnr_min_db": min(psnrs),
    }, clock


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def bound_audit(size: int, run: Run) -> dict:
    """Power estimate against the certified bound for every formation at
    the workload shape (mrca_bw: with jodefu-v2's Butterworth PAN blur)."""
    presets = {f: problems.base_preset(problems.Case(f, "baseline", size))
               for f in problems.FORMATIONS}
    presets["mrca_bw"] = problems.device_preset(problems.Case("mrca", "jodefu-v2", size))
    ratios = {}
    for name, preset in presets.items():
        op = build_formation(preset).op
        estimate = power_iteration_norm(op, iters=POWER_ITERS)
        run.check(estimate <= op.norm_bound,
                  f"{name}: power estimate {estimate} exceeds bound {op.norm_bound}")
        ratios[f"operators.bound_ratio.{name}"] = estimate / op.norm_bound
    return ratios


def micro_ms(fn, *args) -> float:
    """Median wall time of repeated calls, after one warm-up call."""
    fn(*args)
    return 1e3 * statistics.median(timed(fn, *args)[0] for _ in range(MICRO_REPEATS))


def block_timings(size: int, problem, x) -> dict:
    """Elementary blocks built with the public constructors at the
    workload shape, and one cost evaluation."""
    shape = (size, size, problems.NBANDS)
    rng = np.random.default_rng(0)
    cube = rng.standard_normal(shape)
    conv = spatial_convolve(gaussian_blur_bank(shape[2], 2, max_radius=(size - 1) // 2), shape)
    butter = butterworth_blur(shape[:2], 1.4)
    cfa = problems.build(problems.Case("cfa", "baseline", size))
    L, g = problems.solver_inputs(problem)
    lam = SolverConfig().resolved_lambda()
    return {
        "formation.spatial_convolve_ms": micro_ms(conv.apply, cube),
        "formation.butterworth_ms": micro_ms(butter.apply, cube[:, :, 0]),
        "formation.mosaic_ms": micro_ms(mosaic(cfa.h_lri).apply, cube),
        "solver.cost_ms": micro_ms(objective, problem.model.op, L, g, lam, problem.y, x),
    }


def solver_counts(tracer) -> dict:
    """Per-iteration call counts and times over every traced solve.

    Calls per iteration are counted between consecutive prox calls (one per
    iteration), which leaves out the set-up calls before the first one.
    """
    kinds = {"A": "formation.A", "At": "formation.At", "L": "regularizers.L",
             "Lt": "regularizers.Lt", "prox": "regularizers.prox",
             "eval": "regularizers.eval"}
    per_solve = []
    for solve in tracer.named("solver.solve"):
        iterations = solve["attrs"]["iterations"]
        calls = [s["name"] for s in tracer.spans if s["parent"] == solve["id"]]
        prox = [i for i, name in enumerate(calls) if name == kinds["prox"]]
        window = calls[prox[0]:prox[-1]]
        row = {f"solver.calls_{k}": window.count(v) / (len(prox) - 1)
               for k, v in kinds.items() if k != "prox"}
        row["solver.calls_prox"] = len(prox) / iterations
        row["solver.iter_ms"] = 1e3 * duration(solve) / iterations
        row["solver.self_ms"] = 1e3 * tracer.self_time(solve) / iterations
        per_solve.append(row)
    return {key: statistics.median(row[key] for row in per_solve) for key in per_solve[0]}


def run_traced(workload: str, seed: int, run: Run) -> dict:
    metrics = {"package.import_ms": 1e3 * import_seconds()}
    tracer = Tracer()
    scene, probs = set_up(workload, seed, tracer)
    size = probs[0].case.size
    index = problems.noise_seed_index(workload, seed)
    iters = problems.DESK_ITERS if workload == "desk64" else TRACE_ITERS
    specs = [problems.pipeline_spec(p.case, index, iters) for p in probs]

    clock = HostClock(size)
    untraced_s, untraced = pipeline_pass(specs, clock)
    with traced_harness(tracer):
        traced_s, traced = pipeline_pass(specs, clock, tracer.wrap("harness.run_pipeline",
                                                                   run_pipeline))
    again_s, _ = pipeline_pass(specs, clock)
    for prob, a, b in zip(probs, untraced, traced):
        run.check(np.array_equal(a.estimate.values, b.estimate.values)
                  and np.array_equal(a.observation, prob.y)
                  and valid_estimate(b.estimate.values, prob.case.shape),
                  f"{prob.case.label}: traced and untraced estimates differ, or "
                  "the pipeline observation is not the set-up one")
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / statistics.fmean((untraced_s, again_s))
                                             - 1.0)

    if workload != "desk64":
        with tracer.span("harness.baseline"):
            baseline_reconstruct(probs[0].y, probs[0].model)
    solved, x = next((p, r.estimate.values) for p, r in zip(probs, traced)
                     if p.case.method != "baseline")

    metrics.update(bound_audit(size, run))
    metrics.update(block_timings(size, solved, x))
    metrics.update(solver_counts(tracer))
    for name in ("formation.A", "formation.At", "regularizers.L", "regularizers.Lt",
                 "regularizers.prox", "regularizers.eval"):
        metrics[f"{name}_ms"] = tracer.median_ms(name, parent="solver.solve")
    for name in ("formation.build", "harness.scene", "harness.simulate", "harness.baseline",
                 "metrics.psnr", "metrics.ssim", "metrics.sam"):
        metrics[f"{name}_ms"] = tracer.median_ms(name)
    metrics["harness.self_ms"] = 1e3 * sum(
        tracer.self_time(s) for s in tracer.named("harness.run_pipeline"))

    tracer.write(os.path.join(problems.OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": bootstrap.BLAS_THREADS,
        "seed": seed,
        "commit": bootstrap.git_commit(),
    }


def main(usage: str) -> int:
    ap = argparse.ArgumentParser(description=usage,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure repeated passes or solves for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)

    run, timing = Run(), {}
    if args.trace:
        values = run_traced(args.workload, args.seed, run)
        declared = spec["per_layer"]
    else:
        if args.workload == "desk64":
            values, clock = run_desk(args.seed, args.seconds, run)
        else:
            values, clock = run_ttq(args.workload, args.seed, args.seconds, run)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]
        timing = {"wall_s": clock.wall, "scaled_s": clock.scaled,
                  "calibration_s": clock.calibrations,
                  "calibration_ref_s": clock.ref}
        print("timed calls, wall s: " + " ".join(f"{t:.3f}" for t in clock.wall))

    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:14.6f} {entry['unit']}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    os.makedirs(problems.OUT_DIR, exist_ok=True)
    out = os.path.join(problems.OUT_DIR,
                       f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="ascii") as fh:
        json.dump(dict(result, workload=args.workload, environment=env, timing=timing), fh,
                  indent=2)
    print(json.dumps(result))
    return 0
