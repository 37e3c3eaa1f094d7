import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from conftest import random_shift_map, to_dense
from devices import ALIAS

from mrcakit.formation import (
    BlurBank,
    DiagonalGram,
    FormationPreset,
    ShiftMap,
    SpectralWeights,
    add_gaussian_noise,
    average_weights,
    build_formation,
    butterworth_blur,
    cassi_shift_map,
    conv_norm_bound,
    decimate,
    equalize_lri_stats,
    formation_preset,
    gaussian_blur_bank,
    mask_apply,
    mosaic,
    shift_apply,
    spatial_convolve,
    spectral_degrade,
    sum_channels,
)
from mrcakit.formation import _padded_kernel_fft
from mrcakit.masks import Mask, builtin_tile, periodic_mask, random_code_mask
from mrcakit.operators import (
    add,
    adjoint_dot_test,
    compose,
    power_iteration_norm,
    stack,
)


class TestSpectralDegrade:
    def test_average_of_two_bands(self):
        op = spectral_degrade(SpectralWeights([[0.5, 0.5]]), (1, 1, 2))
        out = op.apply(np.array([[[2.0, 4.0]]]))
        assert out[0, 0, 0] == 3.0

    def test_identity_weights(self, rng):
        x = rng.standard_normal((3, 4, 3))
        op = spectral_degrade(SpectralWeights(np.eye(3)), x.shape)
        np.testing.assert_array_equal(op.apply(x), x)
        assert op.norm_bound == pytest.approx(1.0)

    def test_adjoint_random_weights(self, rng):
        w = SpectralWeights(rng.standard_normal((3, 5)))
        op = spectral_degrade(w, (4, 4, 5))
        assert adjoint_dot_test(op, trials=20, seed=0) < 1e-10

    def test_band_count_mismatch(self):
        with pytest.raises(ValueError, match="bands"):
            spectral_degrade(SpectralWeights([[1.0, 0.0]]), (2, 2, 3))

    def test_norm_is_largest_singular_value(self, rng):
        mat = rng.standard_normal((2, 4))
        op = spectral_degrade(SpectralWeights(mat), (3, 3, 4))
        assert op.norm_bound == pytest.approx(np.linalg.svd(mat, compute_uv=False)[0])
        est = power_iteration_norm(op, iters=200, seed=1)
        assert est == pytest.approx(op.norm_bound, rel=1e-6)


class TestSpatialConvolve:
    def test_delta_kernel_is_identity(self, rng):
        x = rng.standard_normal((4, 5, 2))
        op = spatial_convolve(BlurBank(np.ones((1, 1, 2))), x.shape)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-14)
        assert op.norm_bound == pytest.approx(1.0, abs=1e-15)

    def test_constant_image_dc_gain(self, rng):
        kernel = rng.random((3, 3, 1))
        op = spatial_convolve(BlurBank(kernel), (6, 6, 1))
        out = op.apply(np.full((6, 6, 1), 2.0))
        np.testing.assert_allclose(out, 2.0 * kernel.sum(), rtol=1e-12)

    def test_matches_dense_circulant_oracle(self, rng):
        # kernel [0.5, 0.5] on a 1x4 band: anchor at index 1, so
        # out[j] = 0.5*x[j] + 0.5*x[(j+1) % 4]
        bank = BlurBank(np.array([0.5, 0.5]).reshape(1, 2, 1))
        op = spatial_convolve(bank, (1, 4, 1))
        circulant = np.zeros((4, 4))
        for j in range(4):
            circulant[j, j] = 0.5
            circulant[j, (j + 1) % 4] = 0.5
        np.testing.assert_allclose(to_dense(op), circulant, atol=1e-14)

    @pytest.mark.parametrize("shape", [(5, 7, 2), (4, 6, 3)])
    def test_non_symmetric_kernel_matches_dense_circulant_oracle(self, rng, shape):
        # odd and even widths: the real-FFT round trip must keep both
        ni, nj, nk = shape
        kernels = rng.standard_normal((3, 4, nk))
        op = spatial_convolve(BlurBank(kernels), shape)
        # out[i, j, k] = sum_ab kernels[a, b, k] x[i - a + 1, j - b + 2, k], circularly
        circulant = np.zeros((ni * nj * nk,) * 2)
        for i, j, k, a, b in np.ndindex(ni, nj, nk, 3, 4):
            src = np.ravel_multi_index(((i - a + 1) % ni, (j - b + 2) % nj, k), shape)
            circulant[np.ravel_multi_index((i, j, k), shape), src] += kernels[a, b, k]
        np.testing.assert_allclose(to_dense(op), circulant, atol=1e-13)
        adjoint = np.stack([op.adjoint_apply(e.reshape(shape)).ravel()
                            for e in np.eye(ni * nj * nk)], axis=1)
        np.testing.assert_allclose(adjoint, circulant.T, atol=1e-13)

    def test_adjoint_is_correlation(self, rng):
        for shape in ((5, 6, 3), (5, 7, 2), (4, 6, 3)):
            bank = BlurBank(rng.standard_normal((3, 2, shape[2])))
            op = spatial_convolve(bank, shape)
            assert adjoint_dot_test(op, trials=20, seed=2) < 1e-10

    @pytest.mark.parametrize("shape", [(16, 16, 4), (65, 68, 4), (9, 11, 3)])
    def test_bitwise_equal_to_out_of_place_real_fft(self, rng, shape):
        # the operator multiplies the spectrum in place and lets irfft2
        # overwrite it; neither may change a bit of either output
        ni, nj, nk = shape
        kernels = rng.standard_normal((3, 4, nk))
        op = spatial_convolve(BlurBank(kernels), shape)
        half = _padded_kernel_fft(kernels, ni, nj)[:, :nj // 2 + 1]
        x = rng.standard_normal(shape)

        def out_of_place(transfer):
            spec = scipy.fft.rfft2(x, axes=(0, 1))
            return scipy.fft.irfft2(spec * transfer, s=(ni, nj), axes=(0, 1))

        assert np.array_equal(op.apply(x), out_of_place(half))
        assert np.array_equal(op.adjoint_apply(x), out_of_place(np.conj(half)))

    def test_kernel_larger_than_image(self):
        with pytest.raises(ValueError, match="exceeds"):
            spatial_convolve(BlurBank(np.ones((5, 5, 1))), (4, 4, 1))


class TestConvNormBound:
    def test_counterexample_kernel(self):
        # the coefficient-l2 formula is NOT an upper bound here: the true
        # circulant norm is the DC gain 1.0 while sqrt(0.25+0.25) < 1
        bank = BlurBank(np.array([0.5, 0.5]).reshape(1, 2, 1))
        bound = conv_norm_bound(bank, (1, 4))
        assert bound.exact == pytest.approx(1.0, abs=1e-12)
        assert bound.coefficient_l2 == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert bound.coefficient_l2 < bound.exact

    def test_delta_kernel_both_one(self):
        bound = conv_norm_bound(BlurBank(np.ones((1, 1, 3))), (4, 4))
        assert bound.exact == pytest.approx(1.0, abs=1e-15)
        assert bound.coefficient_l2 == pytest.approx(1.0, abs=1e-15)

    def test_unit_sum_gaussian_dc(self):
        bank = gaussian_blur_bank(2, ratio=2, max_radius=3)
        bound = conv_norm_bound(bank, (8, 8))
        assert bound.exact == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("ratio", [2, 4])
    def test_gaussian_gain_at_nyquist_is_0_3(self, ratio):
        # the untruncated kernel's response at the Nyquist frequency
        # 1/(2 ratio) of the decimated grid, along one axis; sampling the
        # continuous Gaussian and cutting it at 4 sigma move it by ~2e-5
        kernel = gaussian_blur_bank(1, ratio).kernels[:, :, 0]
        t = np.arange(kernel.shape[1]) - kernel.shape[1] // 2
        gain = np.sum(kernel.sum(axis=0) * np.cos(np.pi * t / ratio))
        assert gain == pytest.approx(0.3, abs=1e-4)

    def test_exact_matches_power_iteration(self, rng):
        bank = BlurBank(rng.standard_normal((3, 3, 2)))
        op = spatial_convolve(bank, (6, 6, 2))
        est = power_iteration_norm(op, iters=300, seed=3)
        assert est <= op.norm_bound * (1 + 1e-9)
        assert est == pytest.approx(op.norm_bound, rel=1e-3)


class TestDecimate:
    def test_ratio_one_is_identity(self, rng):
        x = rng.standard_normal((3, 5, 2))
        np.testing.assert_array_equal(decimate(x.shape, 1).apply(x), x)

    def test_constant_image(self):
        out = decimate((4, 4, 1), 2).apply(np.full((4, 4, 1), 7.0))
        assert out.shape == (2, 2, 1)
        np.testing.assert_array_equal(out, np.full((2, 2, 1), 7.0))

    def test_decimate_after_adjoint_is_identity(self, rng):
        op = decimate((6, 4, 2), 2)
        y = rng.standard_normal(op.output_shape)
        np.testing.assert_array_equal(op.apply(op.adjoint_apply(y)), y)

    def test_selection_rows_of_dense_oracle(self):
        op = decimate((4, 4, 1), 2)
        dense = to_dense(op)
        # every row selects exactly one sample with weight 1
        np.testing.assert_array_equal(dense.sum(axis=1), np.ones(4))
        assert set(np.unique(dense)) == {0.0, 1.0}

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            decimate((5, 4, 1), 2)


class TestMaskApply:
    def test_all_ones_identity_norm_one(self, rng):
        mask = Mask(np.ones((3, 3, 2)), (0, 1))
        op = mask_apply(mask)
        x = rng.standard_normal((3, 3, 2))
        np.testing.assert_array_equal(op.apply(x), x)
        assert op.norm_bound == 1.0

    def test_all_zero_mask(self, rng):
        op = mask_apply(Mask(np.zeros((2, 2, 1)), (0,)))
        assert not op.apply(rng.standard_normal((2, 2, 1))).any()
        assert op.norm_bound == 0.0

    def test_self_adjoint_to_rounding(self, rng):
        op = mask_apply(Mask(rng.uniform(0, 3, (4, 4, 3)), (0, 1, 2)))
        assert adjoint_dot_test(op, trials=20, seed=4) < 1e-15

    def test_norm_is_max_entry(self, rng):
        vals = rng.uniform(0, 5, (3, 3, 2))
        assert mask_apply(Mask(vals, (0, 1))).norm_bound == vals.max()


class TestShift:
    def test_identity_map(self, rng):
        shape = (2, 3, 2)
        m = ShiftMap(shape, shape, np.arange(12))
        x = rng.standard_normal(shape)
        np.testing.assert_array_equal(shift_apply(m).apply(x), x)

    def test_cassi_1x2x2_example(self):
        # bands [a, b] and [c, d] shear to [a, b, 0] and [0, c, d]
        x = np.zeros((1, 2, 2))
        x[0, :, 0] = [1.0, 2.0]
        x[0, :, 1] = [3.0, 4.0]
        out = shift_apply(cassi_shift_map(1, 2, 2)).apply(x)
        np.testing.assert_array_equal(out[0, :, 0], [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(out[0, :, 1], [0.0, 3.0, 4.0])

    def test_adjoint_then_shift_is_identity(self, rng):
        m = random_shift_map(rng, (3, 4, 2))
        op = shift_apply(m)
        x = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(op.adjoint_apply(op.apply(x)), x)

    def test_dense_oracle_is_partial_permutation(self, rng):
        m = random_shift_map(rng, (2, 3, 2))
        dense = to_dense(shift_apply(m))
        np.testing.assert_array_equal(dense.T @ dense, np.eye(12))

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            ShiftMap((1, 2, 1), (1, 2, 1), np.array([0, 0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            ShiftMap((1, 2, 1), (1, 2, 1), np.array([0, 5]))

    def test_collision_on_last_target_rejected(self):
        # the last output position must be counted like any other
        with pytest.raises(ValueError, match="one-to-one"):
            ShiftMap((1, 3, 1), (1, 4, 1), np.array([3, 1, 3]))

    def test_last_target_on_larger_canvas_accepted(self):
        m = ShiftMap((1, 2, 1), (1, 5, 1), np.array([4, 0]))
        out = shift_apply(m).apply(np.array([[[2.0], [3.0]]]))
        np.testing.assert_array_equal(out[0, :, 0], [3.0, 0.0, 0.0, 0.0, 2.0])


class TestCassiMap:
    def test_single_band_identity_width(self):
        m = cassi_shift_map(3, 5, 1)
        assert m.output_shape == (3, 5, 1)
        np.testing.assert_array_equal(m.target_flat, np.arange(15))

    def test_width_rule(self):
        assert cassi_shift_map(1, 2, 2).output_shape == (1, 3, 2)
        assert cassi_shift_map(4, 8, 5).output_shape == (4, 12, 5)

    def test_band_column_occupancy(self):
        # 0-based band k occupies output columns k .. nj+k-1
        ni, nj, nk = 2, 4, 3
        op = shift_apply(cassi_shift_map(ni, nj, nk))
        out = op.apply(np.ones((ni, nj, nk)))
        for k in range(nk):
            occupied = np.flatnonzero(out[0, :, k])
            np.testing.assert_array_equal(occupied, np.arange(k, nj + k))


class TestSumChannels:
    def test_single_band(self, rng):
        x = rng.standard_normal((3, 3, 1))
        op = sum_channels(x.shape)
        np.testing.assert_array_equal(op.apply(x), x[:, :, 0])
        assert op.norm_bound == 1.0

    def test_four_band_bound_two(self):
        assert sum_channels((2, 2, 4)).norm_bound == 2.0

    def test_constant_cube(self):
        out = sum_channels((2, 2, 5)).apply(np.full((2, 2, 5), 3.0))
        np.testing.assert_array_equal(out, np.full((2, 2), 15.0))

    def test_adjoint_replicates(self, rng):
        op = sum_channels((2, 2, 3))
        y = rng.standard_normal((2, 2))
        back = op.adjoint_apply(y)
        for k in range(3):
            np.testing.assert_array_equal(back[:, :, k], y)


class TestMosaic:
    def test_bayer_selects_assigned_channel(self, rng):
        lri, _ = periodic_mask(builtin_tile("bayer"), 2, 2)
        x = rng.standard_normal((2, 2, 3))
        y = mosaic(lri).apply(x)
        assignment = np.array([[0, 1], [1, 2]])
        for i in range(2):
            for j in range(2):
                assert y[i, j] == x[i, j, assignment[i, j]]

    def test_all_ones_single_band_identity(self, rng):
        m = Mask(np.ones((3, 3, 1)), (0,))
        x = rng.standard_normal((3, 3, 1))
        np.testing.assert_array_equal(mosaic(m).apply(x), x[:, :, 0])

    def test_cassi_hand_example(self):
        # Eq-by-hand: masked bands [a,b],[c,d] shear and sum to [a, b+c, d]
        x = np.zeros((1, 2, 2))
        x[0, :, 0] = [1.0, 2.0]
        x[0, :, 1] = [3.0, 4.0]
        op = mosaic(Mask(np.ones((1, 2, 2)), (0, 1)), cassi_shift_map(1, 2, 2))
        np.testing.assert_array_equal(op.apply(x), [[1.0, 5.0, 4.0]])

    def test_exact_norm_for_binary_selection(self):
        lri, _ = periodic_mask(builtin_tile("quad4"), 4, 4)
        op = mosaic(lri)
        assert op.norm_bound == 1.0
        true = np.linalg.svd(to_dense(op), compute_uv=False)[0]
        assert true == pytest.approx(1.0, abs=1e-12)

    def test_exact_norm_with_shift_overlap(self, rng):
        mask = random_code_mask(3, 4, 3, seed=2)
        op = mosaic(mask, cassi_shift_map(3, 4, 3))
        true = np.linalg.svd(to_dense(op), compute_uv=False)[0]
        assert true <= op.norm_bound * (1 + 1e-12)
        assert op.norm_bound == pytest.approx(true, rel=1e-12)

    def test_shift_shape_mismatch(self):
        with pytest.raises(ValueError, match="shift"):
            mosaic(Mask(np.ones((2, 2, 2)), (0, 1)), cassi_shift_map(3, 2, 2))


def _mosaics():
    """(mask, shift) pairs: the unshifted masks and cassi's sheared random code."""
    quad4, _ = periodic_mask(builtin_tile("quad4"), 8, 8)
    lri, pan = periodic_mask(builtin_tile("bt4pan"), 8, 8)
    graded = Mask(np.random.default_rng(8).uniform(0.0, 2.0, (8, 6, 3)), (0, 1, 2))
    return {"cfa-quad4": (quad4, None), "mrca-lri": (lri, None), "mrca-pan": (pan, None),
            "graded": (graded, None),
            "cassi-sheared": (random_code_mask(8, 6, 3, seed=4), cassi_shift_map(8, 6, 3))}


class TestFusedMosaic:
    """Every mosaic runs as one block; it must agree with the mask ->
    (shift ->) sum chain it replaces."""

    @staticmethod
    def _chain(mask, shift):
        chain = mask_apply(mask)
        if shift is not None:
            chain = compose(shift_apply(shift), chain)
        chain = compose(sum_channels(chain.output_shape), chain)
        chain.norm_bound = min(chain.norm_bound,
                               float(np.sqrt(chain.apply(mask.values).max())))
        return chain

    @pytest.mark.parametrize("name", list(_mosaics()))
    def test_matches_chain(self, rng, name):
        mask, shift = _mosaics()[name]
        op, chain = mosaic(mask, shift), self._chain(mask, shift)
        x = rng.standard_normal(mask.shape)
        expected = chain.apply(x)
        assert np.linalg.norm(op.apply(x) - expected) <= 1e-15 * np.linalg.norm(expected)
        y = rng.standard_normal(op.output_shape)
        np.testing.assert_array_equal(op.adjoint_apply(y), chain.adjoint_apply(y))
        # the chain's root rounds to nearest; the block's is the least double
        # whose square is at least the largest cell energy
        top = Fraction(float(chain.apply(mask.values).max()))
        assert Fraction(op.norm_bound) ** 2 >= top > Fraction(np.nextafter(op.norm_bound, 0)) ** 2
        assert op.norm_bound in (chain.norm_bound, np.nextafter(chain.norm_bound, np.inf))

    @pytest.mark.parametrize("name", list(_mosaics()))
    def test_adjoint_and_bound(self, name):
        op = mosaic(*_mosaics()[name])
        assert adjoint_dot_test(op) < 1e-10
        assert power_iteration_norm(op, iters=100) <= op.norm_bound


def _shifted_mosaics():
    """(mask, shift) pairs off the shipped path: graded masks on random
    injective shift maps, and cassi's shear on non-square odd sizes, each
    with nk = 1 among them."""
    rng = np.random.default_rng(32)
    cases = {}
    for shape in ((5, 7, 3), (7, 5, 1), (3, 9, 8)):
        graded = Mask(rng.uniform(0.0, 2.0, shape), tuple(range(shape[2])))
        cases[f"random-{shape}"] = (graded, random_shift_map(rng, shape))
    for shape in ((7, 9, 3), (9, 5, 1), (5, 11, 7)):
        cases[f"cassi-{shape}"] = (random_code_mask(*shape, seed=sum(shape)),
                                   cassi_shift_map(*shape))
    return cases


def _canvas_bound(mask, shift):
    """The bound as the block that composed a shifted canvas computed it:
    the least double whose square is at least the largest cell energy,
    summed over the bands of the shifted mask."""
    moved = shift_apply(shift).apply(mask.values)
    top = float(np.sum(moved * moved, axis=2).max())
    bound = float(np.sqrt(top))
    return bound if Fraction(bound) ** 2 >= Fraction(top) else float(np.nextafter(bound, np.inf))


class TestCanvasFreeMosaic:
    """A shifted mosaic scatters onto the focal-plane pixel of each
    sample's target and gathers back from it, with no canvas of the
    shifted cube; it must agree with the mask -> shift -> sum chain."""

    @pytest.mark.parametrize("name", list(_shifted_mosaics()))
    def test_matches_chain(self, rng, name):
        mask, shift = _shifted_mosaics()[name]
        op, chain = mosaic(mask, shift), TestFusedMosaic._chain(mask, shift)
        x = rng.standard_normal(mask.shape)
        expected = chain.apply(x)
        # the samples of one pixel are summed in input order, not canvas order
        assert np.linalg.norm(op.apply(x) - expected) <= 1e-15 * np.linalg.norm(expected)
        y = rng.standard_normal(op.output_shape)
        got = op.adjoint_apply(y)
        np.testing.assert_array_equal(got.view(np.uint64), chain.adjoint_apply(y).view(np.uint64))
        assert op.norm_bound == _canvas_bound(mask, shift)
        assert adjoint_dot_test(op) < 1e-10

    @pytest.mark.parametrize("shape", [(7, 9, 3), (9, 5, 1), (12, 20, 7), (16, 16, 8)])
    def test_cassi_gram_bit_identical_to_the_canvas(self, shape):
        # the shipped path: the binary code's cell energies are small
        # integers, exact in any order of summation
        model = build_formation(formation_preset("cassi", *shape))
        shift = cassi_shift_map(*shape)
        moved = shift_apply(shift).apply(model.h_lri.values)
        canvas = np.einsum("ijk,ijk->ij", moved, moved)
        assert isinstance(model.gram, DiagonalGram)
        np.testing.assert_array_equal(model.gram.diagonal, canvas)
        assert model.op.norm_bound == _canvas_bound(model.h_lri, shift)

    def test_a_call_holds_no_canvas(self, rng):
        # at 32x6x8 the sheared canvas (32, 13, 8) holds 2.2 cubes: A held it
        # beside the image, A* beside the gathered cube.  Now A holds the
        # product h*x (one cube) and the image, A* one cube
        shape = (32, 6, 8)
        op = build_formation(formation_preset("cassi", *shape)).op
        x, y = rng.standard_normal(shape), rng.standard_normal(op.output_shape)
        cube, image, slack = x.nbytes, y.nbytes, 2048
        op.apply(x), op.adjoint_apply(y)  # warm any lazy state
        tracemalloc.start()
        try:
            op.apply(x)
            forward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            op.adjoint_apply(y)
            adjoint = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward <= cube + image + slack
        assert adjoint <= cube + slack


class TestButterworth:
    def test_constant_unchanged(self):
        op = butterworth_blur((8, 8), rho_b=1.4)
        x = np.full((8, 8), 5.0)
        np.testing.assert_allclose(op.apply(x), x, rtol=1e-12)
        assert op.norm_bound == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_diameter_is_identity(self, rng):
        op = butterworth_blur((6, 6), rho_b=1e-9)
        x = rng.standard_normal((6, 6))
        np.testing.assert_allclose(op.apply(x), x, atol=1e-12)

    def test_impulse_response_matches_transfer_oracle(self):
        rho_b = 2.0
        for ni, nj in ((16, 16), (9, 11)):  # even and odd grids
            op = butterworth_blur((ni, nj), rho_b)
            impulse = np.zeros((ni, nj))
            impulse[0, 0] = 1.0
            response = op.apply(impulse)
            fi = np.fft.fftfreq(ni)[:, None]
            fj = np.fft.fftfreq(nj)[None, :]
            transfer = 1.0 / np.sqrt(1.0 + (np.hypot(fi, fj) * rho_b) ** 2)
            np.testing.assert_allclose(np.fft.fft2(response).real, transfer, atol=1e-12)
            np.testing.assert_allclose(np.fft.fft2(response).imag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(64, 64, 4), (16, 24, 3)])
    def test_cube_filtered_band_by_band(self, rng, shape):
        cube_op = butterworth_blur(shape, rho_b=1.4)
        plane_op = butterworth_blur(shape[:2], rho_b=1.4)
        x = rng.standard_normal(shape)
        out, back = cube_op.apply(x), cube_op.adjoint_apply(x)
        for k in range(shape[2]):
            np.testing.assert_allclose(out[:, :, k], plane_op.apply(x[:, :, k]), atol=1e-12)
            np.testing.assert_allclose(back[:, :, k], plane_op.adjoint_apply(x[:, :, k]),
                                       atol=1e-12)

    def test_self_adjoint(self, rng):
        for shape in ((5, 7, 2), (9, 11)):
            op = butterworth_blur(shape, rho_b=1.2)
            assert adjoint_dot_test(op, trials=10, seed=5) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            butterworth_blur((4, 4), rho_b=0.0)


class TestPresetReductions:
    """The assembled model collapses to the elementary formations."""

    SHAPE = (8, 8, 4)

    def test_multires_reduction_bitwise(self, rng):
        preset = formation_preset("multires", 8, 8, 4, ratio=2)
        model = build_formation(preset)
        shape = self.SHAPE
        elementary = stack(
            spectral_degrade(average_weights(4), shape),
            compose(decimate(shape, 2),
                    spatial_convolve(gaussian_blur_bank(4, 2, max_radius=3), shape)))
        x = rng.standard_normal(shape)
        np.testing.assert_array_equal(model.op.apply(x), elementary.apply(x))

    def test_cfa_reduction_bitwise(self, rng):
        preset = formation_preset("cfa", 8, 8, 4)
        model = build_formation(preset)
        lri, _ = periodic_mask(builtin_tile("quad4"), 8, 8)
        elementary = mosaic(lri)
        x = rng.standard_normal(self.SHAPE)
        np.testing.assert_array_equal(model.op.apply(x), elementary.apply(x))
        # direct arithmetic oracle
        np.testing.assert_array_equal(model.op.apply(x), (x * lri.values).sum(axis=2))

    def test_cassi_reduction_bitwise(self, rng):
        preset = formation_preset("cassi", 8, 8, 4, seed=3)
        model = build_formation(preset)
        mask = random_code_mask(8, 8, 4, seed=3)
        elementary = mosaic(mask, cassi_shift_map(8, 8, 4))
        x = rng.standard_normal(self.SHAPE)
        np.testing.assert_array_equal(model.op.apply(x), elementary.apply(x))

    def test_mrca_with_zero_weights_equals_cfa(self, rng):
        # suppressing the HRI branch with all-zero weights collapses the
        # focal-plane sum to the plain mosaic
        shape = self.SHAPE
        lri, pan = periodic_mask(builtin_tile("bt4pan"), 8, 8)
        bank = gaussian_blur_bank(4, 2, max_radius=3)
        branch_m = compose(mosaic(lri), spatial_convolve(bank, shape))
        zero_w = spectral_degrade(SpectralWeights(np.zeros((1, 4))), shape)
        branch_p = compose(mosaic(pan), zero_w)
        full = add(branch_m, branch_p)
        x = rng.standard_normal(shape)
        np.testing.assert_array_equal(full.apply(x), branch_m.apply(x))

    def test_mrca_rejects_mismatched_builtin_mask(self):
        preset = formation_preset("mrca", 4, 4, 2, mask="bt4pan")
        with pytest.raises(ValueError):
            build_formation(preset)  # bt4pan carries 4 channels, cube has 2

    def test_mrca_dense_oracle_4x4x2(self, rng, tmp_path):
        # full model against the explicit matrix assembled from the dense
        # factors of every elementary block
        from mrcakit.masks import PeriodicTile, write_mask_file
        tile = PeriodicTile(np.array([[-1, 0], [1, -1]]), 2)
        path = str(tmp_path / "tile.txt")
        write_mask_file(path, tile)
        preset = formation_preset("mrca", 4, 4, 2, mask=path)
        model = build_formation(preset)

        lri, pan = periodic_mask(tile, 4, 4)
        shape = (4, 4, 2)
        bank = gaussian_blur_bank(2, 2, max_radius=1)
        dense = (to_dense(mosaic(lri)) @ to_dense(spatial_convolve(bank, shape))
                 + to_dense(mosaic(pan)) @ to_dense(spectral_degrade(average_weights(2), shape)))
        np.testing.assert_allclose(to_dense(model.op), dense, atol=1e-13)

    def test_compression_ratios(self):
        for preset, ratio in ((formation_preset("mrca", 8, 8, 4), 0.25),
                              (formation_preset("multires", 8, 8, 4, ratio=2), 0.5)):
            op = build_formation(preset).op
            assert np.prod(op.output_shape) / np.prod(op.input_shape) == pytest.approx(ratio)

    @pytest.mark.parametrize("name", ["mrca", "multires"])
    def test_sensor_supports_partition_the_observation(self, name):
        model = build_formation(formation_preset(name, 8, 8, 4))
        assert model.lri_support.shape == model.op.output_shape
        assert model.lri_support.any() and not model.lri_support.all()

    @pytest.mark.parametrize("name, mask", [("cfa", "quad4"), ("cfa", "bt4pan"),
                                            ("cassi", "random")])
    def test_single_sensor_formations_carry_no_supports(self, name, mask):
        model = build_formation(formation_preset(name, 8, 8, 4, mask=mask))
        assert model.lri_support is None


class TestAliasGramHolds:
    """What a periodic model holds, in cubes, once its Gram has taken a
    data step and the step is dropped: the Gram's spectra at the aliases
    and index maps, and on multires the stacked operator's kernel half
    spectrum and its conjugate.  Measured at 64x64x4 with tracemalloc:
    3.49 (ratio 2) and 3.69 (ratio 4) on multires, 3.05 on mrca with and
    without the PAN blur.  A multires Gram that also held its spectra
    over the ratio read 4.57 and 4.82."""

    BOUNDS = {"mrca": 3.2, "multires": 3.8}

    @pytest.mark.parametrize("device", [d for d in ALIAS if d.size == (16, 16) and d.nk == 4],
                             ids=str)
    def test_held_cubes(self, device, rng):
        shape = (64, 64, 4)
        tracemalloc.start()
        try:
            model = build_formation(device.preset(size=shape[:2]))
            y = rng.standard_normal(model.gram.shape)
            model.gram.data_step(1.0, y)
            del y
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / (np.prod(shape) * 8) <= self.BOUNDS[device.formation]


class TestExactNorms:
    """Alias-domain norms of custom tiles against dense oracles; the
    table's devices run the same check in ``test_devices.py``."""

    @staticmethod
    def _custom_tile_mrca(cells, ni, nj, tmp_path, **overrides):
        from mrcakit.masks import PeriodicTile, write_mask_file
        path = str(tmp_path / "tile.txt")
        write_mask_file(path, PeriodicTile(np.array(cells), 4))
        return build_formation(formation_preset("mrca", ni, nj, 4, mask=path, **overrides))

    @staticmethod
    def _assert_exact(op):
        sigma = np.linalg.svd(to_dense(op), compute_uv=False)[0]
        assert sigma <= op.norm_bound <= sigma * (1 + 1e-8)

    @pytest.mark.parametrize("n", [8, 16])
    def test_tile_leaving_a_channel_out_matches_dense_svd(self, n, tmp_path):
        with pytest.warns(UserWarning, match="never assigns"):
            model = self._custom_tile_mrca([[-1, 0], [1, -1]], n, n, tmp_path)
        self._assert_exact(model.op)

    def test_rectangular_period_matches_dense_svd(self, tmp_path):
        # a 2x4 tile on an 8x16 image
        model = self._custom_tile_mrca([[-1, 0, -1, 1], [2, -1, 3, -1]], 8, 16, tmp_path,
                                       hri_blur="butterworth", rho_b=1.4)
        self._assert_exact(model.op)

    def test_mosaic_presets_keep_diagonal_gramian_bound(self):
        assert build_formation(formation_preset("cfa", 64, 64, 4)).op.norm_bound == 1.0
        assert build_formation(formation_preset("cassi", 64, 64, 4)).op.norm_bound == 2.0

    @pytest.mark.parametrize("name", ["mrca", "cfa"])
    def test_undivided_image_size_rejected(self, name):
        mask = "bt4pan" if name == "mrca" else "quad4"
        period = re.escape(str(builtin_tile(mask).period))
        with pytest.raises(ValueError, match=rf"{mask}.*{period}.*\(18, 15\)"):
            build_formation(formation_preset(name, 18, 15, 4, mask=mask))


class TestNoise:
    def test_zero_sigma_identical(self, rng):
        y = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(add_gaussian_noise(y, 0.0, seed=3), y)

    def test_mean_and_std(self):
        y = np.zeros(10 ** 6)
        noisy = add_gaussian_noise(y, 0.5, seed=42)
        # law of large numbers: mean within 4 sigma / sqrt(n)
        assert abs(noisy.mean()) < 4 * 0.5 / 1e3
        assert noisy.std() == pytest.approx(0.5, rel=0.01)

    def test_deterministic(self, rng):
        y = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(add_gaussian_noise(y, 0.1, seed=7),
                                      add_gaussian_noise(y, 0.1, seed=7))

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"got sigma={sigma}"):
            add_gaussian_noise(np.zeros(3), sigma)


class TestEqualize:
    def test_already_matching_unchanged(self, rng):
        y = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        lri = np.array([True, True, True, False, False, False])
        out = equalize_lri_stats(y, lri)
        np.testing.assert_allclose(out, y, rtol=1e-12)

    def test_double_scale_halved(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0])
        lri = np.zeros(8, dtype=bool)
        lri[4:] = True
        out = equalize_lri_stats(y, lri)
        np.testing.assert_allclose(out[4:], [1.0, 2.0, 3.0, 4.0], rtol=1e-12)
        np.testing.assert_array_equal(out[:4], y[:4])

    def test_idempotent(self, rng):
        y = rng.standard_normal(50)
        lri = np.zeros(50, dtype=bool)
        lri[:20] = True
        once = equalize_lri_stats(y, lri)
        twice = equalize_lri_stats(once, lri)
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=1e-14)

    def test_degenerate_lri_rejected(self):
        y = np.array([1.0, 1.0, 2.0, 3.0])
        lri = np.array([True, True, False, False])
        with pytest.raises(ValueError, match="variance"):
            equalize_lri_stats(y, lri)

    def test_empty_support_rejected(self):
        y = np.zeros(4)
        none = np.zeros(4, dtype=bool)
        with pytest.raises(ValueError, match="sample"):
            equalize_lri_stats(y, none)


class TestPresetSerialization:
    def test_round_trip(self):
        preset = formation_preset("mrca", 64, 32, 4, noise_sigma=0.01, seed=9,
                                  hri_blur="butterworth", rho_b=1.3)
        back = FormationPreset.from_text(preset.to_text())
        assert back == preset

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown preset keys"):
            FormationPreset.from_text("name=cfa\nni=4\nnj=4\nnk=3\nbogus=1\n")

    @pytest.mark.parametrize("line", ["np_bands=1", "lri_blur_gain=0.3", "butter_order=1"])
    def test_retired_key_rejected_by_name(self, line):
        # presets written before these constants were fixed carry the keys
        # at their only values; they fail on reading instead of loading
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=rf"unknown preset keys: \['{key}'\]"):
            FormationPreset.from_text(f"name=mrca\nni=8\nnj=8\nnk=4\n{line}\n")

    def test_text_lists_the_ten_fields(self):
        keys = [line.split("=")[0] for line in
                formation_preset("mrca", 8, 8, 4).to_text().splitlines()]
        assert keys == ["name", "ni", "nj", "nk", "ratio", "mask", "hri_blur", "rho_b",
                        "noise_sigma", "seed"]

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            FormationPreset.from_text("ni=4\nnj=4\nnk=3\n")

    def test_missing_size_rejected_as_a_value_error(self):
        with pytest.raises(ValueError, match="^obs.preset: .*'ni'"):
            FormationPreset.from_text("name=cfa\nnj=4\nnk=3\n", "obs.preset")

    @pytest.mark.parametrize("text, message", [
        ("name=cfa\nni=4\nnj=4\nnk=3\nbogus=1\n", "unknown preset keys: ['bogus']"),
        ("name=cfa\nni 4\nnj=4\nnk=3\n", "malformed line 'ni 4', expected key=value"),
        ("name=cfa\nni=4.5\nnj=4\nnk=3\n", "invalid literal for int()"),
        ("name=cfa\nni=4\nnj=4\nnk=3\nratio=0\n", "ratio must be >= 1"),
        ("name=cfa\nni=4\nnj=4\nnk=3\nseed=-1\n", "seed must be non-negative, got seed=-1"),
    ])
    def test_errors_name_the_source(self, text, message):
        with pytest.raises(ValueError, match=f"^obs.preset: {re.escape(message)}"):
            FormationPreset.from_text(text, "obs.preset")

    def test_comments_and_blank_lines_skipped(self):
        text = "# device of obs\n\n" + formation_preset("cfa", 8, 8, 4).to_text() + "\n# end\n"
        assert FormationPreset.from_text(text) == formation_preset("cfa", 8, 8, 4)

    def test_fields_parse_to_their_annotated_types(self):
        back = FormationPreset.from_text("name=mrca\nni=8\nnj=8\nnk=4\nrho_b=2\nseed=3\n")
        assert type(back.name) is str
        assert type(back.ni) is int and type(back.seed) is int
        assert type(back.rho_b) is float and back.rho_b == 2.0

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError):
            FormationPreset.from_text("name=cfa\nni=4.5\nnj=4\nnk=3\n")

    @pytest.mark.parametrize("name", ["mrca", "cfa", "cassi", "multires"])
    @pytest.mark.parametrize("blur, message", [
        ({"rho_b": 0.0}, "blur diameter must be positive"),
        ({"rho_b": -1.0}, "blur diameter must be positive"),
        ({"rho_b": float("nan")}, "blur diameter must be positive and finite, got rho_b=nan"),
        ({"rho_b": float("inf")}, "blur diameter must be positive and finite, got rho_b=inf"),
    ])
    def test_bad_butterworth_rejected_at_construction(self, name, blur, message):
        with pytest.raises(ValueError, match=message):
            formation_preset(name, 16, 16, 4, hri_blur="butterworth", **blur)
        assert formation_preset(name, 16, 16, 4, **blur).hri_blur == "identity"

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_level_rejected_at_construction(self, sigma):
        with pytest.raises(ValueError, match=f"got noise_sigma={sigma}"):
            formation_preset("mrca", 16, 16, 4, noise_sigma=sigma)

    @pytest.mark.parametrize("name", ["mrca", "cfa", "cassi", "multires"])
    def test_negative_seed_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match="seed must be non-negative, got seed=-1"):
            formation_preset(name, 16, 16, 4, seed=-1)

    @pytest.mark.parametrize("name", ["mrca", "cfa", "cassi", "multires"])
    @pytest.mark.parametrize("ratio", [0, -2])
    def test_bad_ratio_rejected_at_construction(self, name, ratio):
        with pytest.raises(ValueError, match=f"ratio must be >= 1, got ratio={ratio}"):
            formation_preset(name, 16, 16, 4, ratio=ratio)

    @pytest.mark.parametrize("name, line, message", [
        ("cfa", "ratio=4", "ratio: the cfa formation has one resolution and no ratio, "
                           "got ratio=4"),
        ("cassi", "ratio=3", "ratio: the cassi formation has one resolution and no ratio, "
                             "got ratio=3"),
        ("multires", "mask=quad4", "mask: the multires formation has no mask, "
                                   "got mask='quad4'"),
    ])
    def test_field_the_device_ignores_rejected(self, name, line, message):
        # the device would build as if the field held its default
        text = f"name={name}\nni=16\nnj=16\nnk=4\n{line}\n"
        with pytest.raises(ValueError, match=f"^obs.preset: {re.escape(message)}$"):
            FormationPreset.from_text(text, "obs.preset")

    def test_unknown_formation_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            formation_preset("sparkle", 4, 4, 3)

    def test_default_masks_per_kind(self):
        assert formation_preset("cfa", 4, 4, 4).mask == "quad4"
        assert formation_preset("cassi", 4, 4, 4).mask == "random"
        assert formation_preset("mrca", 4, 4, 4).mask == "bt4pan"

    def test_mask_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            build_formation(formation_preset("cfa", 4, 4, 3, mask="quad4"))
