"""The structural checks over every device of the table in ``devices.py``:
CI's flag lines give the table's presets, every operator has an exact
adjoint and a certified norm, every Gram is AA*, and every alias domain's
gather and scatter invert each other."""

import os
import runpy
import shlex

import numpy as np
import pytest
import scipy.fft

from conftest import mrca_composition, to_dense
from devices import ALIAS, DEVICES, DIAGONAL

from mrcakit.cli import _preset_from_args, build_parser
from mrcakit.formation import DiagonalGram, build_formation
from mrcakit.operators import adjoint_dot_test, power_iteration_norm


def test_flag_lines_give_the_table_presets(capsys):
    # the lines as CI reads them: each parses and gives its row's preset, each preset once
    runpy.run_path(os.path.join(os.path.dirname(__file__), "devices.py"), run_name="__main__")
    args = [build_parser().parse_args(["pipeline", *shlex.split(line)])
            for line in capsys.readouterr().out.splitlines()]
    presets = [_preset_from_args(a) for a in args]
    assert presets == [device.preset() for device in DEVICES]
    assert len(set(presets)) == len(presets)


@pytest.mark.parametrize("device", DEVICES, ids=str)
def test_adjoint_is_exact(device):
    assert adjoint_dot_test(build_formation(device.preset()).op) < 1e-10


@pytest.mark.parametrize("device", DEVICES, ids=str)
def test_norm_bound_is_certified(device):
    # the power estimate stays at or below the bound, and the bound lies
    # within 1e-8 above the dense operator's largest singular value
    op = build_formation(device.preset()).op
    assert power_iteration_norm(op, iters=100) <= op.norm_bound
    sigma = np.linalg.svd(to_dense(op), compute_uv=False)[0]
    assert sigma <= op.norm_bound <= sigma * (1 + 1e-8)


@pytest.mark.parametrize("device", DIAGONAL, ids=str)
def test_diagonal_gram_is_the_mask_energy(device):
    # AA* of a mosaic is the energy its binary mask puts in each cell, exactly
    model = build_formation(device.preset())
    assert isinstance(model.gram, DiagonalGram)
    dense = to_dense(model.op)
    np.testing.assert_array_equal(dense @ dense.T, np.diag(model.gram.diagonal.ravel()))


@pytest.mark.parametrize("device", ALIAS, ids=str)
def test_alias_grams_are_the_maps_multiplied_out(device):
    # G(w) = A(w) A(w)^H at every class, row i of A(w) being conj_adjoint(e_i)
    gram = build_formation(device.preset()).gram
    n, m = gram.classes, gram.block_size
    rows = np.stack([gram.conj_adjoint(np.tile(e, (n, 1))).reshape(n, -1)
                     for e in np.eye(m, dtype=complex)], axis=1)
    want = rows @ rows.conj().swapaxes(1, 2)
    got = gram.make_grams()(*gram.spectra)
    assert got.shape == want.shape == (n, m, m)
    err = np.linalg.norm(got - want, axis=(1, 2))
    assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("field", ["plane", "cube"])
@pytest.mark.parametrize("device", ALIAS, ids=str)
def test_alias_transform_pair(device, field, rng):
    # the gather (coefficients: the unitary DFT at the aliases) and the
    # scatter (spectrum, of coefficients as they are or conjugated) invert
    # each other on a real cube and plane
    gram = build_formation(device.preset()).gram
    (ni, nj), (pi, pj) = gram.image_shape, gram.period
    x = rng.standard_normal((ni, nj, 1 if field == "plane" else device.nk))
    spec, coef = gram.coefficients(x)
    np.testing.assert_array_equal(spec, scipy.fft.rfft2(x, axes=(0, 1), norm="ortho"))
    mi, mj = ni // pi, nj // pj
    wi, wj = np.indices((mi, mj // 2 + 1)).reshape(2, -1, 1)
    ai, aj = np.divmod(np.arange(pi * pj), pj)
    full = np.fft.fft2(x, axes=(0, 1), norm="ortho")
    np.testing.assert_allclose(coef, full[wi + mi * ai, wj + mj * aj], rtol=0, atol=1e-13)
    for d, conjugated in ((coef, False), (np.conj(coef), True)):
        back = gram.transform_back(gram.spectrum(d, conjugated=conjugated))
        assert back.shape == x.shape
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("size", [None, (64, 64)], ids=["own", "64x64"])
@pytest.mark.parametrize("device", [d for d in ALIAS if d.formation == "mrca"], ids=str)
def test_mrca_matches_the_composition(device, size, rng):
    # mrca applies A and A* from its Gram; the composition of the public
    # blocks, the paper's model, stays the definition of both
    preset = device.preset(size)
    op, composed = build_formation(preset).op, mrca_composition(preset)
    x, y = rng.standard_normal(op.input_shape), rng.standard_normal(op.output_shape)
    for got, want in ((op.apply(x), composed.apply(x)),
                      (op.adjoint_apply(y), composed.adjoint_apply(y))):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
