"""Shared test helpers: dense materialization oracles and random operator
generators used by the adjoint/norm property suites, and the textbook
solver the solver suites compare against."""

from __future__ import annotations

import numpy as np
import pytest

from mrcakit import harness
from mrcakit.formation import (
    BlurBank,
    DiagonalGram,
    FormationPreset,
    ShiftMap,
    SpectralWeights,
    average_weights,
    butterworth_blur,
    decimate,
    gaussian_blur_bank,
    mask_apply,
    mosaic,
    shift_apply,
    spatial_convolve,
    spectral_degrade,
    sum_channels,
)
from mrcakit.masks import Mask, builtin_tile, periodic_mask
from mrcakit.operators import LinearOp, add, compose, stack
from mrcakit.regularizers import tv_op


def to_dense(op: LinearOp) -> np.ndarray:
    """Materialize a small operator as its dense matrix (test oracle only)."""
    n_in = int(np.prod(op.input_shape))
    n_out = int(np.prod(op.output_shape))
    mat = np.zeros((n_out, n_in))
    basis = np.zeros(n_in)
    for col in range(n_in):
        basis[:] = 0.0
        basis[col] = 1.0
        mat[:, col] = op.apply(basis.reshape(op.input_shape)).ravel()
    return mat


def dense_matrix_op(mat: np.ndarray) -> LinearOp:
    """Wrap an explicit matrix as an operator (bound from its SVD)."""
    mat = np.asarray(mat, dtype=np.float64)
    bound = float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0
    return LinearOp((mat.shape[1],), (mat.shape[0],),
                    lambda x: mat @ x, lambda y: mat.T @ y, bound, name="dense")


def mrca_composition(preset: FormationPreset) -> LinearOp:
    """The paper's mrca model of a preset with a built-in tile, as the
    composition of the public blocks: mosaic(h_lri) conv(bank) plus the
    PAN branch [butterworth_blur] mosaic(h_pan) spectral_degrade."""
    ni, nj, nk = preset.ni, preset.nj, preset.nk
    shape = (ni, nj, nk)
    lri, pan = periodic_mask(builtin_tile(preset.mask), ni, nj)
    bank = gaussian_blur_bank(nk, preset.ratio, max_radius=(min(ni, nj) - 1) // 2)
    branch_p = compose(mosaic(pan), spectral_degrade(average_weights(nk), shape))
    if preset.hri_blur == "butterworth":
        branch_p = compose(butterworth_blur((ni, nj), preset.rho_b), branch_p)
    return add(compose(mosaic(lri), spatial_convolve(bank, shape)), branch_p)


def random_shift_map(rng: np.random.Generator, shape) -> ShiftMap:
    """Random injective embedding into a slightly larger canvas."""
    n_in = int(np.prod(shape))
    out_shape = (shape[0] + int(rng.integers(0, 2)),
                 shape[1] + int(rng.integers(0, 3)), shape[2])
    n_out = int(np.prod(out_shape))
    targets = rng.permutation(n_out)[:n_in]
    return ShiftMap(shape, out_shape, targets)


def random_block(rng: np.random.Generator, shape) -> LinearOp:
    """One random elementary formation block consuming a cube shape."""
    ni, nj, nk = shape
    kind = rng.integers(0, 7)
    if kind == 0:
        n_out = int(rng.integers(1, nk + 2))
        return spectral_degrade(SpectralWeights(rng.standard_normal((n_out, nk))), shape)
    if kind == 1:
        kh = int(rng.integers(1, min(ni, 4) + 1))
        kw = int(rng.integers(1, min(nj, 4) + 1))
        return spatial_convolve(BlurBank(rng.standard_normal((kh, kw, nk))), shape)
    if kind == 2:
        ratios = [r for r in (1, 2, 3) if ni % r == 0 and nj % r == 0]
        return decimate(shape, int(rng.choice(ratios)))
    if kind == 3:
        return mask_apply(Mask(rng.uniform(0.0, 2.0, shape), tuple(range(nk))))
    if kind == 4:
        return shift_apply(random_shift_map(rng, shape))
    if kind == 5:
        return sum_channels(shape)
    return butterworth_blur(shape, rho_b=float(rng.uniform(0.5, 3.0)))


def tv_adapter(shape) -> LinearOp:
    """TV followed by a band merge back to 3-D so it can enter chains."""
    grad = tv_op(shape)
    ni, nj, nk = shape
    merged = (ni, nj, nk * 2)
    reshape = LinearOp(grad.output_shape, merged,
                       lambda w: w.reshape(merged),
                       lambda v: v.reshape(grad.output_shape), 1.0, name="reshape")
    return compose(reshape, grad)


def random_composition(rng: np.random.Generator, depth: int = 3) -> LinearOp:
    """A random conformable chain of blocks, sometimes stacked or summed."""
    shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 5)))
    op = tv_adapter(shape) if rng.random() < 0.25 else random_block(rng, shape)
    for _ in range(depth - 1):
        if len(op.output_shape) != 3:
            break
        op = compose(random_block(rng, op.output_shape), op)
    choice = rng.integers(0, 3)
    if choice == 0:
        op = stack(op, random_block(rng, op.input_shape))
    elif choice == 1:
        op = add(op, op)
    return op


def plain_cp_reference(A, L, g, y, cfg):
    """Textbook Chambolle-Pock on K = [A; L]: unscaled duals U and W, the
    steps written out, the extrapolated iterate formed explicitly and A
    applied to it afresh.  It runs all ``cfg.q_max`` iterations."""
    lam = cfg.resolved_lambda()
    tau = 0.01 / (cfg.lambda_bar * A.norm_bound ** 2)
    sigma_a = 0.495 / (tau * A.norm_bound ** 2)
    sigma_l = 0.495 / (tau * L.norm_bound ** 2)
    x = A.adjoint_apply(y) if cfg.x0 is None else np.asarray(cfg.x0, dtype=np.float64)
    x_bar = x
    u = np.zeros(A.output_shape)
    w = np.zeros(L.output_shape)
    for _ in range(cfg.q_max):
        u = (u + sigma_a * (A.apply(x_bar) - y)) / (1.0 + sigma_a)
        w = g.prox_conj(w + sigma_l * L.apply(x_bar), lam)
        x_next = x - tau * (A.adjoint_apply(u) + L.adjoint_apply(w))
        x_bar = 2.0 * x_next - x
        x = x_next
    return x


def plain_resolvent_reference(A, L, g, y, cfg, relaxation=1.0):
    """Textbook Chambolle-Pock with the data term in the primal, over-relaxed
    by ``relaxation`` (1: none): unscaled dual W, the steps written out, the
    prox of the data term solved through (I + tau A*A)^-1 = I - tau A*(I +
    tau AA*)^-1 A with AA* = ``cfg.gram``, at tau = ``cfg.gram.step``
    / (lambda_bar |A|^2).  A diagonal AA* = diag(e) (``DiagonalGram``)
    divides by 1 + tau e between A and A*, written out here; alias-domain
    blocks take their whole ``data_step(tau, y)``.  Each pass finishes the relaxed step that the
    last one began, (X, W) += relaxation ((X~, W~) - (X, W)), and takes the
    next primal step X~, from X~ = X = x0 and W = 0; it returns the last
    X~.  It runs all ``cfg.q_max`` iterations."""
    lam = cfg.resolved_lambda()
    tau = cfg.gram.step / (cfg.lambda_bar * A.norm_bound ** 2)
    sigma = 0.99 / (tau * L.norm_bound ** 2)
    if isinstance(cfg.gram, DiagonalGram):
        def data(v):
            return v - A.adjoint_apply(tau * (A.apply(v) - y) / (1.0 + tau * cfg.gram.diagonal))
    else:
        data = cfg.gram.data_step(tau, y)
    x = A.adjoint_apply(y) if cfg.x0 is None else np.asarray(cfg.x0, dtype=np.float64)
    x_tilde = x
    w = np.zeros(L.output_shape)
    for _ in range(cfg.q_max):
        w_tilde = g.prox_conj(w + sigma * L.apply(2.0 * x_tilde - x), lam)
        w = w + relaxation * (w_tilde - w)
        x = x + relaxation * (x_tilde - x)
        x_tilde = data(x - tau * L.adjoint_apply(w))
    return x_tilde


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def empty_acquisition_record():
    """Every test starts with ``run_pipeline``'s record empty, so a function
    a test patches runs whatever ran before it."""
    harness._RECORD.clear()
