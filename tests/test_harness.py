import dataclasses
import hashlib
import os

import numpy as np
import pytest

from mrcakit import harness
from mrcakit.datacube import DataCube, read_datacube, write_datacube
from mrcakit.formation import (FormationPreset, add_gaussian_noise, build_formation,
                               formation_preset)
from mrcakit.harness import (
    PipelineSpec,
    SceneParams,
    baseline_reconstruct,
    flat_patch_region,
    load_reference,
    read_observation,
    read_preset,
    run_pipeline,
    run_sweep,
    simulate,
    synth_scene,
    write_observation,
)
from mrcakit.masks import Mask, PeriodicTile, builtin_tile, write_mask_file
from mrcakit.metrics import read_report
from mrcakit.regularizers import tv_forward


class TestSynthScene:
    def test_fixed_seed_fixed_checksum(self):
        # frozen with numpy 2.2 PCG64; the stream is stable per seed
        cube = synth_scene(SceneParams(32, 32, 4), seed=7)
        digest = hashlib.sha256(cube.values.tobytes()).hexdigest()
        assert digest == "ece86a9feb1909facb0c24cf7c9ce27eb40df9feba0ed7b32714f9a9a4cf344a"

    def test_deterministic(self):
        a = synth_scene(SceneParams(16, 16, 3), seed=9)
        b = synth_scene(SceneParams(16, 16, 3), seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_values_in_range(self):
        for seed in range(5):
            cube = synth_scene(SceneParams(24, 24, 5), seed=seed)
            assert cube.rho == 1.0
            assert cube.values.min() >= 0.0
            assert cube.values.max() <= 1.0

    def test_flat_patch_interior_has_zero_gradient(self):
        for seed in range(5):
            cube = synth_scene(SceneParams(32, 32, 4), seed=seed)
            rows, cols = flat_patch_region(32, 32)
            interior = cube.values[rows, cols, :]
            grads = tv_forward(interior)[1:, 1:, :, :]  # drop boundary rows
            assert not grads.any()


_SEEDED = formation_preset("cfa", 16, 16, 4)

# every entry point that takes a seed, as a call of that seed
_SEED_TAKERS = {
    "load_reference": lambda seed: load_reference(_SEEDED, "synthetic", seed),
    "simulate": lambda seed: simulate(_SEEDED, synth_scene(SceneParams(16, 16, 4)), seed),
    "synth_scene": lambda seed: synth_scene(SceneParams(8, 8, 2), seed),
    "add_gaussian_noise": lambda seed: add_gaussian_noise(np.zeros(3), 0.1, seed),
    "PipelineSpec": lambda seed: PipelineSpec(formation=_SEEDED, seed=seed),
    "FormationPreset": lambda seed: FormationPreset("cfa", 4, 4, 3, seed=seed),
}


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be non-negative, got seed=-1"),
    (2.5, "seed must be an integer, got seed=2.5")], ids=["negative", "non-integer"])
@pytest.mark.parametrize("entry", sorted(_SEED_TAKERS))
def test_bad_seed_rejected_by_name(entry, seed, message):
    """A negative or non-integer seed is a ValueError that names it, where
    numpy would end in a bare message or a TypeError."""
    with pytest.raises(ValueError, match=message):
        _SEED_TAKERS[entry](seed)


class TestBaseline:
    def test_full_mask_single_band_returns_observation(self, rng):
        # an all-ones single-channel mask observes the image directly
        from mrcakit.formation import FormationModel, mosaic
        mask = Mask(np.ones((6, 6, 1)), (0,))
        op = mosaic(mask)
        model = FormationModel(formation_preset("cfa", 6, 6, 1, mask="quad4"), op, h_lri=mask)
        y = rng.random((6, 6))
        out = baseline_reconstruct(y, model)
        np.testing.assert_array_equal(out[:, :, 0], y)

    def test_constant_scene_through_bayer_exact(self):
        preset = formation_preset("cfa", 8, 8, 3, mask="bayer")
        model = build_formation(preset)
        cube = np.full((8, 8, 3), 0.7)
        y = model.op.apply(cube)
        out = baseline_reconstruct(y, model)
        np.testing.assert_allclose(out, 0.7, rtol=1e-12)

    def test_empty_channel_support_rejected(self, rng):
        from mrcakit.formation import FormationModel, mosaic
        mask = Mask(np.zeros((4, 4, 2)), (0, 1))
        op = mosaic(mask)
        model = FormationModel(formation_preset("cfa", 4, 4, 2, mask="quad4"), op, h_lri=mask)
        with pytest.raises(ValueError, match="support"):
            baseline_reconstruct(rng.random((4, 4)), model)

    def test_multires_upsample_shape_and_means(self, rng):
        preset = formation_preset("multires", 16, 16, 3, ratio=2)
        model = build_formation(preset)
        cube = synth_scene(SceneParams(16, 16, 3), seed=8)
        y = model.op.apply(cube.values)
        out = baseline_reconstruct(y, model)
        assert out.shape == (16, 16, 3)
        p, _ = model.op.parts.split(y)
        assert out.mean() == pytest.approx(p.mean(), rel=1e-12)

    def test_cassi_floor_is_meaningful(self):
        # each sheared cell sums up to nk masked bands; dividing by one
        # band's mask value instead of the cell's mask energy scored ~2 dB
        spec = PipelineSpec(formation=formation_preset("cassi", 64, 64, 4, noise_sigma=0.01),
                            method="baseline", seed=11)
        assert run_pipeline(spec).report.psnr >= 12.0

    @pytest.mark.parametrize("name, mask, nk", [("cfa", "bayer", 3), ("cassi", "random", 3),
                                                ("mrca", "bt4pan", 4)])
    def test_samples_are_the_minimum_norm_solution(self, rng, name, mask, nk):
        # at every sampled position the baseline keeps pinv(M) y, M the
        # mosaic of the channel mask (sheared on cassi)
        from conftest import to_dense
        from mrcakit.formation import cassi_shift_map, mosaic
        model = build_formation(formation_preset(name, 8, 8, nk, mask=mask))
        y = rng.random(model.op.output_shape)
        M = mosaic(model.h_lri, cassi_shift_map(8, 8, nk) if name == "cassi" else None)
        oracle = (np.linalg.pinv(to_dense(M)) @ y.ravel()).reshape(8, 8, nk)
        sampled = model.h_lri.values > 0
        np.testing.assert_allclose(baseline_reconstruct(y, model)[sampled], oracle[sampled],
                                   rtol=0, atol=1e-12)

    def test_cassi_floor_runs(self, rng):
        model = build_formation(formation_preset("cassi", 8, 8, 3, seed=4))
        y = model.op.apply(synth_scene(SceneParams(8, 8, 3), seed=4).values)
        out = baseline_reconstruct(y, model)
        assert out.shape == (8, 8, 3)
        assert np.all(np.isfinite(out))


class TestPipeline:
    SPEC = PipelineSpec(
        formation=formation_preset("mrca", 32, 32, 4, noise_sigma=0.01),
        method="jodefu-v1", iters=40, seed=3)

    def test_report_fields_finite(self):
        report = run_pipeline(self.SPEC).report
        assert report.formation == "mrca"
        assert np.isfinite(report.psnr) and np.isfinite(report.sam)
        assert report.compression_ratio == pytest.approx(0.25)

    def test_bayer_mosaic_v1_finite_metrics(self):
        spec = PipelineSpec(
            formation=formation_preset("cfa", 16, 16, 3, mask="bayer",
                                       noise_sigma=0.01),
            method="jodefu-v1", iters=30, seed=5)
        report = run_pipeline(spec).report
        assert np.isfinite([report.psnr, report.sam, report.ssim]).all()
        assert report.compression_ratio == pytest.approx(1 / 3)

    def test_rerun_bitwise_identical(self):
        a = run_pipeline(self.SPEC)
        b = run_pipeline(self.SPEC)
        assert a.report == b.report
        np.testing.assert_array_equal(a.estimate.values, b.estimate.values)

    def test_identity_formation_baseline_perfect(self):
        # an all-ones single-band mosaic leaves nothing to reconstruct
        from mrcakit.formation import FormationModel, mosaic
        from mrcakit.metrics import psnr
        cube = synth_scene(SceneParams(12, 12, 1), seed=6)
        mask = Mask(np.ones((12, 12, 1)), (0,))
        op = mosaic(mask)
        model = FormationModel(formation_preset("cfa", 12, 12, 1, mask="quad4"), op, h_lri=mask)
        y = model.op.apply(cube.values)
        out = baseline_reconstruct(y, model)
        assert psnr(cube, DataCube(out, rho=cube.rho)) == np.inf

    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "run")
        spec = dataclasses.replace(self.SPEC, out_dir=out, report_format="csv")
        result = run_pipeline(spec)
        ref = read_datacube(out + "/reference")
        est = read_datacube(out + "/estimate")
        acq = read_datacube(out + "/acquisition")
        assert ref.shape == (32, 32, 4) and est.shape == (32, 32, 4)
        assert acq.shape == (32, 32, 1)
        rows = read_report(out + "/report.csv")
        assert rows[0].formation == "mrca"
        np.testing.assert_allclose(est.values, result.estimate.values, atol=1e-6)

    def test_stacked_observation_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        spec = PipelineSpec(
            formation=formation_preset("multires", 16, 16, 2, ratio=2),
            method="baseline", seed=2, out_dir=out)
        run_pipeline(spec)
        hri = read_datacube(out + "/acquisition_hri")
        lri = read_datacube(out + "/acquisition_lri")
        assert hri.shape == (16, 16, 1)
        assert lri.shape == (8, 8, 2)

    def test_pipeline_matches_manual_steps(self):
        # the pipeline equals calling the four steps by hand on one seed
        from mrcakit.formation import add_gaussian_noise
        from mrcakit.harness import _derived_seeds, _effective_preset, reconstruct
        from mrcakit.metrics import psnr, sam, ssim
        spec = self.SPEC
        scene_seed, noise_seed = _derived_seeds(spec.seed)
        cube = synth_scene(SceneParams(32, 32, 4), seed=scene_seed)
        preset = _effective_preset(spec, spec.formation)
        model = build_formation(preset)
        y = add_gaussian_noise(model.op.apply(cube.values),
                               preset.noise_sigma * cube.rho, seed=noise_seed)
        xhat = reconstruct(spec, model, y, cube.rho)
        report = run_pipeline(spec).report
        est = DataCube(xhat, rho=cube.rho)
        assert report.psnr == psnr(cube, est)
        assert report.sam == sam(cube, est)
        assert report.ssim == ssim(cube, est)

    @pytest.mark.parametrize("formation", ["mrca", "multires"])
    def test_equalize_keeps_the_raw_observation(self, formation):
        from mrcakit.formation import equalize_lri_stats
        from mrcakit.regularizers import metric_norm, tv_op
        from mrcakit.solver import SolverConfig, jodefu_solve
        spec = PipelineSpec(formation=formation_preset(formation, 16, 16, 4, noise_sigma=0.01),
                            iters=20, seed=3)
        raw = run_pipeline(spec)
        eq = run_pipeline(dataclasses.replace(spec, equalize=True))
        np.testing.assert_array_equal(eq.observation, raw.observation)
        model = build_formation(spec.formation)
        y = equalize_lri_stats(raw.observation, model.lri_support)
        xhat, _ = jodefu_solve(model.op, tv_op(model.op.input_shape), metric_norm("l221"), y,
                               SolverConfig(lambda_bar=spec.lambda_bar, rho_y=1.0, q_max=20,
                                            x0=baseline_reconstruct(y, model),
                                            gram=model.gram))
        np.testing.assert_array_equal(eq.estimate.values, xhat)

    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method, kind", [("jodefu-v1", "l221"), ("jodefu-v2", "s1l1")])
    def test_pipeline_solves_from_the_baseline(self, formation, method, kind):
        from mrcakit.harness import _effective_preset
        from mrcakit.regularizers import metric_norm, tv_op
        from mrcakit.solver import SolverConfig, jodefu_solve
        spec = PipelineSpec(formation=formation_preset(formation, 16, 16, 4, noise_sigma=0.01),
                            method=method, iters=20, seed=3)
        run = run_pipeline(spec)
        model = build_formation(_effective_preset(spec, spec.formation))
        y = run.observation
        xhat, _ = jodefu_solve(model.op, tv_op(model.op.input_shape), metric_norm(kind), y,
                               SolverConfig(lambda_bar=spec.lambda_bar, rho_y=1.0, q_max=20,
                                            x0=baseline_reconstruct(y, model),
                                            gram=model.gram))
        np.testing.assert_array_equal(run.estimate.values, xhat)

    @pytest.mark.parametrize("formation, mask", [
        pytest.param("cassi", "random", id="cassi"), pytest.param("cfa", "quad4", id="cfa"),
        # a PAN cell of a cfa mosaic is an empty cell, not a sensor
        pytest.param("cfa", "bt4pan", id="cfa-bt4pan")])
    def test_equalize_without_a_sensor_class_rejected(self, formation, mask):
        from mrcakit.harness import reconstruct
        model = build_formation(formation_preset(formation, 16, 16, 4, mask=mask))
        y = model.op.apply(synth_scene(SceneParams(16, 16, 4), seed=3).values)
        spec = PipelineSpec(formation=model.preset, method="baseline", equalize=True)
        with pytest.raises(ValueError, match=formation):
            reconstruct(spec, model, y, 1.0)

    def test_blurred_device_is_the_same_for_every_method(self):
        device = formation_preset("mrca", 16, 16, 4, noise_sigma=0.01,
                                  hri_blur="butterworth", rho_b=2.0)
        runs = [run_pipeline(PipelineSpec(formation=device, method=method, iters=2, seed=3))
                for method in ("baseline", "jodefu-v1", "jodefu-v2")]
        for other in runs[1:]:
            np.testing.assert_array_equal(other.observation, runs[0].observation)

    @pytest.mark.parametrize("formation", ["cfa", "cassi", "multires"])
    def test_v2_gives_no_blur_to_a_device_that_does_not_apply_it(self, tmp_path, formation):
        device = formation_preset(formation, 16, 16, 4, noise_sigma=0.01)
        runs = [run_pipeline(PipelineSpec(formation=device, method=method, iters=2, seed=3,
                                          out_dir=str(tmp_path / method)))
                for method in ("jodefu-v1", "jodefu-v2")]
        np.testing.assert_array_equal(runs[1].observation, runs[0].observation)
        saved = (tmp_path / "jodefu-v2" / "acquisition.preset").read_text()
        assert FormationPreset.from_text(saved) == device

    def test_v2_keeps_the_blur_of_its_device(self, tmp_path):
        device = formation_preset("mrca", 16, 16, 4, hri_blur="butterworth", rho_b=2.0)
        run_pipeline(PipelineSpec(formation=device, method="jodefu-v2", iters=2,
                                  out_dir=str(tmp_path)))
        saved = FormationPreset.from_text((tmp_path / "acquisition.preset").read_text())
        assert saved == device

    @pytest.mark.parametrize("stored", [False, True], ids=["synthetic", "datacube"])
    @pytest.mark.parametrize("formation, shape, message", [
        ("mrca", (8, 8, 4), "image 8x8 is smaller than the 11-tap window"),
        ("cassi", (32, 32, 1), "spectral angles need at least two bands, got 1")],
        ids=["8x8", "one-band"])
    def test_image_below_the_ssim_window_rejected_before_the_solve(
            self, tmp_path, monkeypatch, stored, formation, shape, message):
        from mrcakit import harness

        def never(*args, **kwargs):
            raise AssertionError("ran before the size check")
        monkeypatch.setattr(harness, "build_formation", never)
        monkeypatch.setattr(harness, "jodefu_solve", never)
        spec = dataclasses.replace(self.SPEC, formation=formation_preset(formation, *shape))
        if stored:  # the stored cube resizes the 32x32x4 preset
            stem = str(tmp_path / "cube")
            write_datacube(stem, synth_scene(SceneParams(*shape), seed=3))
            spec = dataclasses.replace(self.SPEC, dataset=stem)
        with pytest.raises(ValueError, match=message):
            run_pipeline(spec)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            PipelineSpec(formation=self.SPEC.formation, method="magic")

    @pytest.mark.parametrize("field, value", [
        ("report_format", "xml"), ("norm_kind", "l2"),
        ("lambda_bar", 0.0), ("lambda_bar", -1e-3), ("lambda_bar", float("nan")),
        ("lambda_bar", float("inf")), ("seed", -1)])
    def test_bad_field_rejected_at_construction(self, tmp_path, field, value):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(self.SPEC, out_dir=str(out), **{field: value})
        assert not out.exists()


class TestScaleInvariance:
    """The quality indices do not depend on the unit of the scene: one scene
    stored at dynamic range 1 and the same scene times 255 stored at 255
    score alike.  The stored samples are float32, so the two observations
    differ by rounding and the bounds are loose."""

    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
    def test_stored_cube_scaled_by_its_range_scores_alike(self, tmp_path, formation, method):
        scene = synth_scene(SceneParams(32, 32, 4), seed=5)
        reports = []
        for rho in (1.0, 255.0):
            stem = str(tmp_path / f"scene{rho:g}")
            write_datacube(stem, DataCube(scene.values * rho, rho=rho))
            spec = PipelineSpec(formation=formation_preset(formation, 32, 32, 4, noise_sigma=0.01),
                                method=method, dataset=stem, seed=3)
            reports.append(run_pipeline(spec).report)
        unit, scaled = reports
        assert scaled.psnr == pytest.approx(unit.psnr, rel=0, abs=1e-5)
        assert scaled.ssim == pytest.approx(unit.ssim, rel=0, abs=1e-6)
        assert scaled.sam == pytest.approx(unit.sam, rel=0, abs=1e-6)


class TestSweep:
    def test_lambda_axis_rows(self):
        spec = dataclasses.replace(TestPipeline.SPEC, iters=10)
        rows = run_sweep(spec, "lambda_bar", [1e-4, 1e-3, 1e-2])
        assert [r.lambda_bar for r in rows] == [1e-4, 1e-3, 1e-2]

    def test_norm_axis(self):
        spec = dataclasses.replace(TestPipeline.SPEC, iters=5)
        rows = run_sweep(spec, "norm_kind", ["l221", "l111"])
        assert len(rows) == 2

    def test_blur_axis_varies_the_device(self):
        spec = dataclasses.replace(TestPipeline.SPEC, formation=formation_preset("mrca", 16, 16, 4),
                                   iters=2)
        rows = run_sweep(spec, "rho_b", [2.0])
        device = dataclasses.replace(spec.formation, hri_blur="butterworth", rho_b=2.0)
        assert rows == [run_pipeline(dataclasses.replace(spec, formation=device)).report]

    @pytest.mark.parametrize("formation, axis, values, message", [
        ("mrca", "norm_kind", ["l221", "l2"], "norm_kind"),
        ("mrca", "rho_b", [1.4, -1.0], "blur diameter"),
        ("cfa", "rho_b", [1.4], "rho_b: the cfa formation applies no PAN blur"),
        ("cassi", "rho_b", [1.4], "rho_b: the cassi formation applies no PAN blur"),
        ("multires", "rho_b", [1.4], "rho_b: the multires formation applies no PAN blur"),
    ])
    def test_bad_point_rejected_before_the_first_run(self, monkeypatch, formation, axis, values,
                                                     message):
        import mrcakit.harness as harness

        def no_run(*args, **kwargs):
            raise AssertionError("a point ran before the sweep was checked")

        monkeypatch.setattr(harness, "run_pipeline", no_run)
        monkeypatch.setattr(harness, "build_formation", no_run)
        spec = dataclasses.replace(TestPipeline.SPEC,
                                   formation=formation_preset(formation, 32, 32, 4))
        with pytest.raises(ValueError, match=message):
            run_sweep(spec, axis, values)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            run_sweep(TestPipeline.SPEC, "iters", [10])


def _bits(result):
    """A pipeline result's report and the bytes of its estimate and observation."""
    return (result.report, result.estimate.values.tobytes(), result.observation.tobytes(),
            result.observation.dtype, result.observation.shape)


def _rewrite(paths, write):
    """Rewrite files in place at their old sizes and restore their old
    access and modification stamps, so that no file stamp tells the
    rewrite apart."""
    stats = {path: os.stat(path) for path in paths}
    write()
    for path, stat in stats.items():
        assert os.stat(path).st_size == stat.st_size, path
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


class TestAcquisitionRecord:
    """``run_pipeline`` keeps the last acquisition it made and reuses it on
    the next row of the same device and seed that loads the same samples;
    every output stays bitwise that of a run from an empty record."""

    DESK = [PipelineSpec(formation=formation_preset(name, 16, 16, 4, noise_sigma=0.01),
                         method=method, iters=5, seed=11)
            for name in ("mrca", "cfa", "multires", "cassi")
            for method in ("baseline", "jodefu-v1", "jodefu-v2")]

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        build = harness.build_formation

        def counted(preset):
            calls.append(preset)
            return build(preset)
        monkeypatch.setattr(harness, "build_formation", counted)
        return calls

    def test_desk_rows_equal_runs_from_an_empty_record(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        rows = [_bits(run_pipeline(spec)) for spec in self.DESK]
        # mrca's jodefu-v2 device carries the method's PAN blur: a build of its own
        assert len(calls) == 5
        for spec, row in zip(self.DESK, rows):
            harness._RECORD.clear()
            assert row == _bits(run_pipeline(spec)), f"{spec.formation.name} {spec.method}"

    def test_observation_cannot_write_into_the_record(self):
        spec = self.DESK[1]
        first = run_pipeline(spec)
        expected = first.observation.copy()
        with pytest.raises(ValueError):
            first.observation[0, 0, 0] = 1e3
        with pytest.raises(ValueError):
            first.observation.flags.writeable = True
        second = run_pipeline(spec)
        assert second.observation.tobytes() == expected.tobytes()
        harness._RECORD.clear()
        assert _bits(second) == _bits(run_pipeline(spec))

    def test_rewritten_dataset_is_read_again(self, tmp_path):
        stem = str(tmp_path / "scene")
        write_datacube(stem, synth_scene(SceneParams(16, 16, 4), seed=1))
        spec = dataclasses.replace(self.DESK[1], dataset=stem)
        first = run_pipeline(spec)
        _rewrite([stem + ".hdr", stem + ".raw"],
                 lambda: write_datacube(stem, synth_scene(SceneParams(16, 16, 4), seed=2)))
        second = run_pipeline(spec)
        assert second.report != first.report
        harness._RECORD.clear()
        assert _bits(second) == _bits(run_pipeline(spec))

    def test_rewritten_mask_tile_is_read_again(self, tmp_path):
        path = str(tmp_path / "tile.txt")
        tile = builtin_tile("bt4pan")
        write_mask_file(path, tile)
        spec = dataclasses.replace(self.DESK[1], formation=formation_preset(
            "mrca", 16, 16, 4, mask=path, noise_sigma=0.01))
        first = run_pipeline(spec)
        swapped = np.where(tile.cells == 0, 1, np.where(tile.cells == 1, 0, tile.cells))
        _rewrite([path], lambda: write_mask_file(path, PeriodicTile(swapped, 4)))
        second = run_pipeline(spec)
        assert second.observation.tobytes() != first.observation.tobytes()
        harness._RECORD.clear()
        assert _bits(second) == _bits(run_pipeline(spec))

    def test_tile_file_row_builds_on_every_call(self, monkeypatch, tmp_path):
        path = str(tmp_path / "tile.txt")
        write_mask_file(path, builtin_tile("bt4pan"))
        spec = dataclasses.replace(self.DESK[1], formation=formation_preset(
            "mrca", 16, 16, 4, mask=path, noise_sigma=0.01))
        calls = self.count_builds(monkeypatch)
        first, second = run_pipeline(spec), run_pipeline(spec)
        assert len(calls) == 2
        assert _bits(first) == _bits(second)

    def test_equal_samples_share_the_acquisition_under_their_own_label(self, monkeypatch,
                                                                       tmp_path):
        scene = synth_scene(SceneParams(16, 16, 4), seed=1)
        for name in ("first", "second"):
            write_datacube(str(tmp_path / name), scene)
        specs = [dataclasses.replace(self.DESK[1], dataset=str(tmp_path / name))
                 for name in ("first", "second")]
        calls = self.count_builds(monkeypatch)
        first, second = run_pipeline(specs[0]), run_pipeline(specs[1])
        assert len(calls) == 1
        assert (first.report.dataset, second.report.dataset) == ("first", "second")
        harness._RECORD.clear()
        assert _bits(second) == _bits(run_pipeline(specs[1]))

    @pytest.mark.parametrize("axis, values, builds", [
        ("lambda_bar", [1e-4, 1e-3, 1e-2], 1),
        ("norm_kind", ["l221", "l111", "s1l1"], 1),
        ("rho_b", [1.0, 1.4, 2.0], 3)])
    def test_sweep_builds_once_per_device(self, monkeypatch, axis, values, builds):
        calls = self.count_builds(monkeypatch)
        run_sweep(dataclasses.replace(TestPipeline.SPEC, iters=2), axis, values)
        assert len(calls) == builds


class TestObservationFiles:
    @staticmethod
    def observe(tmp_path, name, formation, n):
        preset = formation_preset(formation, n, n, 4, noise_sigma=0.01)
        model, y = simulate(preset, synth_scene(SceneParams(n, n, 4), seed=1), seed=1)
        stem = str(tmp_path / name)
        write_observation(stem, model, y, 1.0)
        return stem, y

    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    def test_round_trip(self, tmp_path, formation):
        stem, y = self.observe(tmp_path, "obs", formation, 16)
        model, back, rho = read_observation(stem)
        assert model.preset.name == formation and rho == 1.0
        np.testing.assert_array_equal(back, y.astype(np.float32))

    def test_reference_cube_rejected_as_a_focal_plane(self, tmp_path):
        stem, _ = self.observe(tmp_path, "obs", "cfa", 16)
        ref = str(tmp_path / "ref")
        write_datacube(ref, synth_scene(SceneParams(16, 16, 4), seed=1))
        with pytest.raises(ValueError) as info:
            read_observation(ref, stem + ".preset")
        assert str(info.value) == (
            f"{ref}: shape (16, 16, 4), preset {stem}.preset wants (16, 16, 1)")

    def test_observation_larger_than_its_preset_rejected(self, tmp_path):
        small, _ = self.observe(tmp_path, "small", "mrca", 16)
        big, _ = self.observe(tmp_path, "big", "mrca", 32)
        with pytest.raises(ValueError) as info:
            read_observation(big, small + ".preset")
        assert str(info.value) == (
            f"{big}: shape (32, 32, 1), preset {small}.preset wants (16, 16, 1)")

    def test_stacked_block_checked_against_its_part(self, tmp_path):
        small, _ = self.observe(tmp_path, "small", "multires", 16)
        big, _ = self.observe(tmp_path, "big", "multires", 32)
        with pytest.raises(ValueError) as info:
            read_observation(big, small + ".preset")
        assert str(info.value).startswith(f"{big}_hri: shape (32, 32, 1), preset {small}.preset")

    def test_bad_preset_names_its_path(self, tmp_path):
        path = str(tmp_path / "obs.preset")
        with open(path, "w") as fh:
            fh.write("name=cfa\nni=16\nnj=16\nnk=4\nbogus=1\n")
        with pytest.raises(ValueError) as info:
            read_preset(path)
        assert str(info.value) == f"{path}: unknown preset keys: ['bogus']"
