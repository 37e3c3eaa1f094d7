"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py -v`` to see
them live).  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from conftest import plain_cp_reference, random_composition, random_shift_map

from mrcakit import harness
from mrcakit.formation import (
    BlurBank,
    SpectralWeights,
    average_weights,
    build_formation,
    butterworth_blur,
    cassi_shift_map,
    compose,
    conv_norm_bound,
    decimate,
    formation_preset,
    gaussian_blur_bank,
    mask_apply,
    mosaic,
    shift_apply,
    spatial_convolve,
    spectral_degrade,
    sum_channels,
)
from mrcakit.harness import PipelineSpec, run_pipeline, synth_scene, SceneParams
from mrcakit.masks import Mask, builtin_tile, periodic_mask, random_code_mask
from mrcakit.metrics import compression_ratio, psnr, sam, ssim, write_report
from mrcakit.operators import adjoint_dot_test, identity, power_iteration_norm, stack
from mrcakit.regularizers import TV_NORM_BOUND, metric_norm, prox_conj, tv_op
from mrcakit.solver import SolverConfig, jodefu_solve, objective


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def _catalog_operators():
    """Every shipped formation and regularizer operator at desk shapes."""
    shape = (8, 8, 4)
    lri, pan = periodic_mask(builtin_tile("bt4pan"), 8, 8)
    rng = np.random.default_rng(99)
    return {
        "spectral_degrade": spectral_degrade(SpectralWeights(rng.standard_normal((2, 4))), shape),
        "spatial_convolve": spatial_convolve(BlurBank(rng.standard_normal((3, 3, 4))), shape),
        "decimate": decimate(shape, 2),
        "mask_apply": mask_apply(Mask(rng.uniform(0, 2, shape), (0, 1, 2, 3))),
        "shift_apply": shift_apply(cassi_shift_map(8, 8, 4)),
        "sum_channels": sum_channels(shape),
        "mosaic": mosaic(lri),
        "mosaic_sheared": mosaic(random_code_mask(8, 8, 4, seed=1), cassi_shift_map(8, 8, 4)),
        "butterworth": butterworth_blur(shape, 1.4),
        "mrca": build_formation(formation_preset("mrca", 8, 8, 4)).op,
        "multires": build_formation(formation_preset("multires", 8, 8, 4)).op,
        "tv": tv_op(shape),
    }


def test_criterion_1_adjoint_correctness():
    start = time.perf_counter()
    worst = 0.0
    for name, op in _catalog_operators().items():
        err = adjoint_dot_test(op, trials=20, seed=hash(name) % 2 ** 31)
        worst = max(worst, err)
        assert err < 1e-10, f"{name}: adjoint error {err:.3e}"
    rng = np.random.default_rng(2024)
    for trial in range(50):
        op = random_composition(rng)
        err = adjoint_dot_test(op, trials=20, seed=trial)
        worst = max(worst, err)
        assert err < 1e-10, f"composition {trial} ({op.name}): {err:.3e}"
    elapsed = time.perf_counter() - start
    _report("1 (adjoints < 1e-10)", worst < 1e-10 and elapsed < 30.0,
            f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_norm_bound_soundness():
    rng = np.random.default_rng(7)
    shape = (6, 7, 3)
    checked = 0
    for config in range(100):
        blocks = {
            "mask": mask_apply(Mask(rng.uniform(0, 3, shape), (0, 1, 2))),
            "kernel": spatial_convolve(BlurBank(rng.standard_normal(
                (int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3))), shape),
            "weights": spectral_degrade(SpectralWeights(
                rng.standard_normal((int(rng.integers(1, 5)), 3))), shape),
            "shift": shift_apply(random_shift_map(rng, shape)),
            "stack": stack(sum_channels(shape),
                           mask_apply(Mask(rng.uniform(0, 2, shape), (0, 1, 2)))),
        }
        for name, op in blocks.items():
            est = power_iteration_norm(op, iters=30, seed=config)
            assert est <= op.norm_bound * (1 + 1e-6), (
                f"{name} config {config}: power {est:.6f} > bound {op.norm_bound:.6f}")
            checked += 1
    # the coefficient-l2 formula fails as a bound here; the certified
    # exact value is the DC gain
    bank = BlurBank(np.array([0.5, 0.5]).reshape(1, 2, 1))
    bound = conv_norm_bound(bank, (1, 4))
    op = spatial_convolve(bank, (1, 4, 1))
    est = power_iteration_norm(op, iters=200, seed=0)
    assert bound.exact == pytest.approx(1.0, abs=1e-12)
    assert bound.coefficient_l2 == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert est > bound.coefficient_l2 * (1 + 1e-6), "counterexample must exceed the l2 value"
    assert est <= bound.exact * (1 + 1e-6)
    assert op.norm_bound == bound.exact
    # the exact alias-domain norms of the built periodic formations
    built = {
        "mrca": formation_preset("mrca", 64, 64, 4),
        "mrca_bw": formation_preset("mrca", 64, 64, 4, hri_blur="butterworth", rho_b=1.4),
        "multires": formation_preset("multires", 64, 64, 4),
    }
    for name, preset in built.items():
        op = build_formation(preset).op
        est = power_iteration_norm(op, iters=100, seed=0)
        assert est <= op.norm_bound, f"{name}: power {est:.9f} > bound {op.norm_bound:.9f}"
        checked += 1
    _report("2 (norm bounds dominate)", True,
            f"{checked} block configs + shear/exact counterexample 1.0 vs {bound.coefficient_l2:.4f}")


def test_criterion_3_tv_norm_constant():
    start = time.perf_counter()
    est = power_iteration_norm(tv_op((64, 64, 1)), iters=400, seed=1)
    elapsed = time.perf_counter() - start
    ok = 0.99 * TV_NORM_BOUND <= est <= TV_NORM_BOUND and elapsed < 5.0
    _report("3 (gradient norm in [0.99*sqrt8, sqrt8])", ok,
            f"estimate {est:.6f} vs sqrt8 {TV_NORM_BOUND:.6f}, {elapsed:.1f}s")


def test_criterion_4_prox_contracts():
    rng = np.random.default_rng(11)
    lam = 0.8
    tolerances = {"l221": 5e-16, "l111": 0.0, "s1l1": 1e-14}
    for kind, rtol in tolerances.items():
        for _ in range(1000):
            w = rng.standard_normal((3, 3, 2, 2)) * rng.uniform(0.1, 4.0)
            once = prox_conj(kind, w, lam)
            twice = prox_conj(kind, once, lam)
            if rtol == 0.0:
                np.testing.assert_array_equal(twice, once)
            else:
                np.testing.assert_allclose(twice, once, rtol=rtol, atol=1e-15)
            other = rng.standard_normal((3, 3, 2, 2)) * 2.0
            lhs = np.linalg.norm(prox_conj(kind, w, lam) - prox_conj(kind, other, lam))
            assert lhs <= np.linalg.norm(w - other) * (1 + 1e-12)
    worst = 0.0
    for seed in range(100):
        w = np.random.default_rng(seed).standard_normal((4, 4, 3, 2)) * 2.0
        via_moreau = w - prox_conj("l111", w, lam)
        soft = np.sign(w) * np.maximum(np.abs(w) - lam, 0.0)
        worst = max(worst, float(np.max(np.abs(via_moreau - soft))))
    _report("4 (prox idempotent/nonexpansive, Moreau to 1e-12)", worst < 1e-12,
            f"3x1000 fields, Moreau gap {worst:.2e}")


def test_criterion_5_preset_reductions_bitwise():
    rng = np.random.default_rng(55)
    shape = (8, 8, 4)
    x = rng.standard_normal(shape)

    multires = build_formation(formation_preset("multires", 8, 8, 4, ratio=2)).op
    elementary = stack(
        spectral_degrade(average_weights(4), shape),
        compose(decimate(shape, 2),
                spatial_convolve(gaussian_blur_bank(4, 2, max_radius=3), shape)))
    ok_mr = np.array_equal(multires.apply(x), elementary.apply(x))

    cfa = build_formation(formation_preset("cfa", 8, 8, 4)).op
    lri, _ = periodic_mask(builtin_tile("quad4"), 8, 8)
    ok_cfa = np.array_equal(cfa.apply(x), mosaic(lri).apply(x))
    ok_cfa &= np.array_equal(cfa.apply(x), (x * lri.values).sum(axis=2))

    cassi = build_formation(formation_preset("cassi", 8, 8, 4, seed=3)).op
    code = random_code_mask(8, 8, 4, seed=3)
    ok_ca = np.array_equal(cassi.apply(x),
                           mosaic(code, cassi_shift_map(8, 8, 4)).apply(x))

    _report("5 (reductions bitwise)", ok_mr and ok_cfa and ok_ca,
            f"multires={ok_mr} cfa={ok_cfa} shear={ok_ca}")


def test_criterion_6_solver_sanity():
    rng = np.random.default_rng(6)
    shape = (8, 8, 3)
    y = rng.uniform(0, 1, shape)
    xhat, _ = jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"), y,
                           SolverConfig(lambda_bar=1e-12, q_max=250))
    gap_identity = float(np.max(np.abs(xhat - y)))

    scene = synth_scene(SceneParams(8, 8, 1), seed=3)
    noisy = scene.values + rng.normal(0, 0.05, scene.shape)
    A, L, g = identity(scene.shape), tv_op(scene.shape), metric_norm("l221")
    x_fast, _ = jodefu_solve(A, L, g, noisy, SolverConfig(lambda_bar=0.05, q_max=250))
    # the textbook long run has no stop: it runs all 5000 iterations
    x_ref = plain_cp_reference(A, L, g, noisy, SolverConfig(lambda_bar=0.05, q_max=5000))
    o_fast = objective(A, L, g, 0.05, noisy, x_fast)
    o_ref = objective(A, L, g, 0.05, noisy, x_ref)
    rel_gap = abs(o_fast - o_ref) / o_ref

    ok = gap_identity < 1e-8 and rel_gap < 1e-4
    _report("6 (solver sanity)", ok,
            f"identity gap {gap_identity:.2e}, self-oracle gap {rel_gap:.2e}")


def _desk_experiment(method: str, seed: int = 11):
    spec = PipelineSpec(
        formation=formation_preset("mrca", 64, 64, 4, mask="bt4pan", noise_sigma=0.01),
        method=method, lambda_bar=1e-3, iters=250, seed=seed)
    return run_pipeline(spec)


def test_criterion_7_desk_experiment():
    start = time.perf_counter()
    v1 = _desk_experiment("jodefu-v1").report
    floor = _desk_experiment("baseline").report
    elapsed = time.perf_counter() - start
    margin = v1.psnr - floor.psnr
    ok = margin >= 2.0 and v1.sam < floor.sam and elapsed < 60.0
    _report("7 (desk experiment beats baseline)", ok,
            f"psnr {v1.psnr:.2f} vs {floor.psnr:.2f} (+{margin:.2f} dB), "
            f"sam {v1.sam:.2f} vs {floor.sam:.2f}, {elapsed:.1f}s")


def test_criterion_8_metric_ground_truth():
    ref = synth_scene(SceneParams(32, 32, 4), seed=8)
    ok = (psnr(ref, ref) == math.inf and sam(ref, ref) == 0.0
          and ssim(ref, ref) == 1.0)
    rho_c = compression_ratio(formation_preset("mrca", 64, 64, 4))
    ok &= rho_c == pytest.approx(0.250, abs=1e-12)
    _report("8 (ground-truth metrics and 1/4 ratio)", bool(ok),
            f"psnr=inf sam=0 ssim=1, rho_c={rho_c:.3f}")


def test_criterion_9_determinism(tmp_path):
    runs = []
    for attempt in range(2):
        harness._RECORD.clear()  # two cold runs: the second rebuilds what the first built
        result = _desk_experiment("jodefu-v1")
        path = str(tmp_path / f"report_{attempt}.csv")
        write_report(path, [result.report], "csv")
        runs.append(open(path, "rb").read())
    ok = runs[0] == runs[1]
    _report("9 (bitwise-identical reports)", ok, f"{len(runs[0])} bytes each")
