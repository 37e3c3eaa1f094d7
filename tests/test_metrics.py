import math

import numpy as np
import pytest

from mrcakit.datacube import DataCube
from mrcakit.formation import add_gaussian_noise, build_formation, formation_preset
from mrcakit.harness import SceneParams, synth_scene
from mrcakit.masks import PeriodicTile, builtin_tile, write_mask_file
from mrcakit.metrics import (
    QualityReport,
    compression_ratio,
    psnr,
    read_report,
    sam,
    ssim,
    write_report,
)


# a tile file with channel cells only, written by the test that names it
_PAN_FREE_FILE = "pan-free-tile.txt"
# periodic mrca tiles without a PAN cell
_PAN_FREE_TILES = (
    formation_preset("mrca", 16, 16, 4, mask="quad4"),
    formation_preset("mrca", 16, 16, 3, mask="bayer"),
    formation_preset("mrca", 16, 16, 4, mask=_PAN_FREE_FILE),
)


def _cube(values, rho=1.0):
    return DataCube(np.asarray(values, dtype=float), rho=rho)


class TestPsnr:
    def test_perfect_is_infinite(self, rng):
        ref = _cube(rng.random((8, 8, 3)))
        assert psnr(ref, ref) == math.inf

    def test_uniform_error_closed_form(self):
        ref = _cube(np.zeros((10, 10, 1)), rho=1.0)
        est = _cube(np.full((10, 10, 1), 0.1), rho=1.0)
        assert psnr(ref, est) == pytest.approx(20.0, abs=1e-12)

    def test_monotone_in_noise_level(self, rng):
        ref = synth_scene(SceneParams(16, 16, 2), seed=1)
        noisy = lambda s: DataCube(
            np.clip(add_gaussian_noise(ref.values, s, seed=5), 0, 1), rho=1.0)
        assert psnr(ref, noisy(0.02)) > psnr(ref, noisy(0.04))

    def test_uses_declared_range_not_empirical(self):
        ref = _cube(np.full((4, 4, 1), 0.5), rho=255.0)
        est = _cube(np.full((4, 4, 1), 0.6), rho=255.0)
        assert psnr(ref, est) == pytest.approx(10 * math.log10(255.0 ** 2 / 0.1 ** 2), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            psnr(_cube(np.zeros((2, 2, 1))), _cube(np.zeros((2, 3, 1))))


class TestSam:
    def test_perfect_is_exactly_zero(self, rng):
        ref = _cube(rng.random((6, 6, 4)) + 0.1)
        assert sam(ref, ref) == 0.0

    def test_scale_invariance(self, rng):
        ref = _cube(rng.random((6, 6, 3)) + 0.1)
        est = _cube(2.0 * ref.values, rho=2.0)
        assert sam(ref, est) == 0.0
        est3 = _cube(3.0 * ref.values, rho=3.0)
        assert sam(ref, est3) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_spectra(self):
        ref = np.zeros((1, 1, 2))
        est = np.zeros((1, 1, 2))
        ref[0, 0] = [1.0, 0.0]
        est[0, 0] = [0.0, 1.0]
        assert sam(_cube(ref), _cube(est)) == pytest.approx(90.0)

    def test_zero_pixels_skipped(self):
        ref = np.zeros((1, 2, 2))
        est = np.zeros((1, 2, 2))
        ref[0, 0] = [1.0, 0.0]
        est[0, 0] = [0.0, 1.0]  # second pixel zero in both: skipped
        assert sam(_cube(ref), _cube(est)) == pytest.approx(90.0)

    def test_single_band_rejected(self):
        with pytest.raises(ValueError, match="bands"):
            sam(_cube(np.ones((2, 2, 1))), _cube(np.ones((2, 2, 1))))


def _ssim_oracle(ref, est):
    """SSIM with the explicit 11x11 window summed tap by tap, band by band."""
    t = np.arange(11) - 5.0
    g = np.exp(-0.5 * (t / 1.5) ** 2)
    window = np.outer(g, g)
    window /= window.sum()

    def filt(img):
        ni, nj = img.shape[0] - 10, img.shape[1] - 10
        out = np.zeros((ni, nj))
        for di, dj in np.ndindex(11, 11):
            out += window[di, dj] * img[di:di + ni, dj:dj + nj]
        return out

    c1, c2 = (0.01 * ref.rho) ** 2, (0.03 * ref.rho) ** 2
    scores = []
    for k in range(ref.nk):
        a, b = ref.values[:, :, k], est.values[:, :, k]
        mu_a, mu_b = filt(a), filt(b)
        var_a = filt(a * a) - mu_a ** 2
        var_b = filt(b * b) - mu_b ** 2
        cov = filt(a * b) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


class TestSsim:
    @pytest.mark.parametrize("shape", [(16, 16, 3), (13, 29, 3)])
    def test_perfect_is_one(self, rng, shape):
        ref = synth_scene(SceneParams(*shape), seed=2)
        assert ssim(ref, ref) == 1.0

    @pytest.mark.parametrize("shape", [(11, 11, 1), (13, 29, 3), (64, 64, 4)])
    def test_matches_2d_window_oracle(self, rng, shape):
        ref = DataCube(rng.random(shape), rho=1.0)
        est = DataCube(np.clip(ref.values + rng.normal(0, 0.1, shape), 0, 1), rho=1.0)
        assert ssim(ref, est) == pytest.approx(_ssim_oracle(ref, est), rel=1e-12, abs=0)

    def test_noise_degrades_textured_image(self, rng):
        ref = synth_scene(SceneParams(32, 32, 2), seed=3)
        est = DataCube(np.clip(ref.values + rng.normal(0, 0.4, ref.shape), 0, 1), rho=1.0)
        assert ssim(ref, est) < 0.5

    def test_symmetry(self, rng):
        a = synth_scene(SceneParams(16, 16, 2), seed=4)
        b = DataCube(np.clip(a.values + rng.normal(0, 0.1, a.shape), 0, 1), rho=1.0)
        assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)

    def test_image_smaller_than_window(self):
        tiny = _cube(np.ones((8, 8, 1)))
        with pytest.raises(ValueError, match="window"):
            ssim(tiny, tiny)


class TestPerfectOnlyWhenEqual:
    def test_imperfect_estimate_imperfect_scores(self, rng):
        ref = synth_scene(SceneParams(16, 16, 3), seed=12)
        est = DataCube(ref.values + 0.01, rho=ref.rho)
        assert math.isfinite(psnr(ref, est))
        assert ssim(ref, est) < 1.0
        skewed = ref.values.copy()
        skewed[:, :, 0] += 0.2
        assert sam(ref, DataCube(skewed, rho=ref.rho)) > 0.0


def built_ratio(preset):
    """Observation size over cube size of the built operator."""
    op = build_formation(preset).op
    return float(np.prod(op.output_shape) / np.prod(op.input_shape))


class TestCompressionRatio:
    def test_full_acquisition_quarter(self):
        assert compression_ratio(formation_preset("mrca", 64, 64, 4)) == pytest.approx(0.250)

    def test_multires_half(self):
        assert compression_ratio(
            formation_preset("multires", 64, 64, 4, ratio=2)) == pytest.approx(0.500)

    def test_single_frame_sheared_just_over_quarter(self):
        # wide frame: ni*(nj+nk-1) samples over ni*nj*nk
        ratio = compression_ratio(formation_preset("cassi", 64, 512, 4))
        assert ratio == pytest.approx(515 / 2048, abs=1e-12)
        assert round(ratio, 3) == 0.251

    @pytest.mark.parametrize("preset", [
        formation_preset("mrca", 16, 16, 4),
        formation_preset("mrca", 16, 16, 4, hri_blur="butterworth"),
        formation_preset("multires", 16, 16, 4, ratio=2),
        formation_preset("multires", 16, 16, 4, ratio=4),
        formation_preset("cfa", 16, 16, 4),
        formation_preset("cassi", 16, 64, 4),
    ], ids=lambda p: f"{p.name}-{p.ni}x{p.nj}-r{p.ratio}-{p.hri_blur}")
    def test_preset_ratio_equals_built_formation(self, preset):
        assert compression_ratio(preset) == built_ratio(preset)

    @pytest.mark.parametrize("preset", [
        formation_preset("mrca", 18, 16, 4),  # bt4pan period does not divide 18
        formation_preset("cfa", 16, 16, 4, mask="bayer"),  # 3-channel tile, 4 bands
        formation_preset("cassi", 16, 17, 4, mask="quad4"),
        formation_preset("mrca", 16, 16, 4, mask="no-such-tile.txt"),  # read as a file
        formation_preset("mrca", 16, 16, 4, mask="random"),
        formation_preset("multires", 16, 16, 4, ratio=3),
        *_PAN_FREE_TILES,
    ])
    def test_preset_rejected_as_build_formation_rejects_it(self, preset, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_mask_file(_PAN_FREE_FILE, PeriodicTile(np.arange(16).reshape(4, 4) % 4, 4))
        with pytest.raises((ValueError, OSError)) as built:
            build_formation(preset)
        with pytest.raises((ValueError, OSError)) as counted:
            compression_ratio(preset)
        assert (type(counted.value), str(counted.value)) == (type(built.value), str(built.value))
        if preset in _PAN_FREE_TILES:
            assert "PAN pixels" in str(built.value)

    def test_mask_file_ratio(self, tmp_path):
        path = str(tmp_path / "tile.txt")
        write_mask_file(path, builtin_tile("bt4pan"))
        preset = formation_preset("mrca", 16, 16, 4, mask=path)
        assert compression_ratio(preset) == built_ratio(preset)

    def test_in_unit_interval_for_all_presets(self):
        for name in ("mrca", "multires", "cfa", "cassi"):
            r = compression_ratio(formation_preset(name, 16, 16, 4))
            assert 0.0 < r <= 1.0


class TestReports:
    ROW = QualityReport(dataset="synthetic:1", formation="mrca",
                        reconstruction="jodefu-v1", lambda_bar=1e-3,
                        ssim=0.91, psnr=28.4, sam=4.2, compression_ratio=0.25)

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report(path, [self.ROW], "csv")
        assert read_report(path) == [self.ROW]

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_report(path, [self.ROW], "json")
        assert read_report(path) == [self.ROW]

    def test_infinite_psnr_survives_round_trip(self, tmp_path):
        row = QualityReport(dataset="gt", formation="mrca", reconstruction="-",
                            lambda_bar=None, ssim=1.0, psnr=math.inf, sam=0.0,
                            compression_ratio=0.25)
        for fmt in ("csv", "json"):
            path = str(tmp_path / f"r.{fmt}")
            write_report(path, [row], fmt)
            back = read_report(path)[0]
            assert back.psnr == math.inf
            assert back.lambda_bar is None

    # one row with both special cells: an infinite PSNR and no lambda_bar
    PINNED = QualityReport(dataset="synthetic:1", formation="mrca", reconstruction="baseline",
                           lambda_bar=None, ssim=0.91, psnr=math.inf, sam=4.2,
                           compression_ratio=0.25)

    def test_csv_bytes_pinned(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(str(path), [self.PINNED], "csv")
        assert path.read_bytes() == (
            b"dataset,formation,reconstruction,lambda_bar,ssim,psnr,sam,compression_ratio\r\n"
            b"synthetic:1,mrca,baseline,,0.91,inf,4.2,0.25\r\n")

    def test_json_bytes_pinned(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), [self.PINNED], "json")
        assert path.read_text() == (
            '[\n  {\n    "dataset": "synthetic:1",\n    "formation": "mrca",\n'
            '    "reconstruction": "baseline",\n    "lambda_bar": null,\n    "ssim": 0.91,\n'
            '    "psnr": Infinity,\n    "sam": 4.2,\n    "compression_ratio": 0.25\n  }\n]\n')

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_report(str(tmp_path / "x.xml"), [self.ROW], "xml")
