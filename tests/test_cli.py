import numpy as np
import pytest

from mrcakit.cli import main
from mrcakit.datacube import DataCube, read_datacube, write_datacube
from mrcakit.harness import METHODS, SceneParams, synth_scene
from mrcakit.masks import parse_mask_file
from mrcakit.metrics import read_report


def run(*argv):
    return main([str(a) for a in argv])


class TestMasksCommand:
    def test_writes_parseable_tile(self, tmp_path):
        out = tmp_path / "m.txt"
        assert run("masks", "--name", "bayer", "--out", out) == 0
        tile = parse_mask_file(str(out))
        assert tile.period == (2, 2) and tile.nchannels == 3

    def test_prints_builtin(self, capsys):
        assert run("masks", "--name", "bt4pan") == 0
        assert "4 4 4" in capsys.readouterr().out

    def test_round_trips_file(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1 2 2\n0 1\n")
        dst = tmp_path / "out.txt"
        assert run("masks", "--file", src, "--out", dst) == 0
        assert parse_mask_file(str(dst)).nchannels == 2


class TestSimulateReconstructEvaluate:
    def test_full_cycle(self, tmp_path):
        obs = tmp_path / "obs"
        est = tmp_path / "est"
        rep = tmp_path / "rep.json"
        assert run("simulate", "--formation", "mrca", "--mask", "bt4pan",
                   "--ni", 16, "--nj", 16, "--nk", 4, "--seed", 2,
                   "--noise-sigma", 0.01, "--out", obs) == 0
        assert run("reconstruct", "--in", obs, "--method", "jodefu-v1",
                   "--iters", 20, "--out", est) == 0
        assert run("evaluate", "--ref", f"{obs}_reference", "--est", est,
                   "--preset", f"{obs}.preset", "--report", "json",
                   "--out", rep) == 0
        row = read_report(str(rep))[0]
        assert row.compression_ratio == pytest.approx(0.25)
        assert np.isfinite(row.psnr)

    def test_simulate_from_existing_cube(self, tmp_path):
        cube = synth_scene(SceneParams(12, 12, 3), seed=4)
        stem = tmp_path / "ref"
        write_datacube(str(stem), cube)
        obs = tmp_path / "obs"
        assert run("simulate", "--formation", "cfa", "--mask", "bayer",
                   "--in", stem, "--out", obs) == 0
        acq = read_datacube(str(obs))
        assert acq.shape == (12, 12, 1)

    def test_stacked_multires_cycle(self, tmp_path):
        obs = tmp_path / "obs"
        est = tmp_path / "est"
        assert run("simulate", "--formation", "multires", "--ni", 16,
                   "--nj", 16, "--nk", 2, "--out", obs) == 0
        assert read_datacube(f"{obs}_hri").shape == (16, 16, 1)
        assert read_datacube(f"{obs}_lri").shape == (8, 8, 2)
        assert run("reconstruct", "--in", obs, "--method", "baseline",
                   "--out", est) == 0
        assert read_datacube(str(est)).shape == (16, 16, 2)


class TestPipelineCommand:
    def test_default_v1_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("pipeline", "--formation", "mrca", "--mask", "bt4pan",
                   "--lambda-bar", "1e-3", "--iters", 25, "--ni", 16,
                   "--nj", 16, "--nk", 4, "--seed", 1, "--out", out) == 0
        assert (out / "report.csv").exists()
        assert "mrca jodefu-v1" in capsys.readouterr().out

    def test_unknown_norm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("pipeline", "--norm", "l212")
        assert exc.value.code != 0

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_retired_dynamic_range_flag_rejected_by_parser(self, tmp_path, capsys, command):
        # a synthetic scene lies in [0, 1]; --rho is not read as a prefix of --rho-b
        with pytest.raises(SystemExit) as exc:
            run(command, "--ni", 16, "--nj", 16, "--rho", 2, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "--rho 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "reconstruct"])
    @pytest.mark.parametrize("value", ["zero", "replicate"])
    def test_retired_boundary_flag_rejected_by_parser(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            run(command, "--in", "obs", "--out", "est", "--boundary", value)
        assert exc.value.code == 2
        assert "--boundary" in capsys.readouterr().err


class TestStagedMatchesPipeline:
    """``simulate -> reconstruct -> evaluate`` against ``pipeline --out``
    with the same flags.  Observation files hold float32 samples, so the
    staged estimate matches the pipeline's to float32 rounding."""

    FLAGS = ("--ni", 16, "--nj", 16, "--nk", 4, "--seed", 11, "--noise-sigma", 0.01)
    FORMATIONS = ("mrca", "multires", "cfa", "cassi")

    # the PAN blur the pipeline gives a jodefu-v2 device without one, on the
    # one formation that applies it
    DEVICE_FLAGS = {("mrca", "jodefu-v2"): ("--rho-b", 1.4)}

    def pipeline(self, tmp_path, formation, method):
        rundir = tmp_path / "run"
        assert run("pipeline", "--formation", formation, *self.FLAGS, "--method", method,
                   "--iters", 20, "--out", rundir) == 0
        return rundir

    @pytest.mark.parametrize("formation", FORMATIONS)
    @pytest.mark.parametrize("method", METHODS)
    def test_simulate_writes_the_pipeline_files(self, tmp_path, formation, method):
        rundir = self.pipeline(tmp_path, formation, method)
        obs = tmp_path / "obs"
        assert run("simulate", "--formation", formation, *self.FLAGS,
                   *self.DEVICE_FLAGS.get((formation, method), ()), "--out", obs) == 0
        blocks = ("_hri", "_lri") if formation == "multires" else ("",)
        pairs = [("obs.preset", "acquisition.preset")]
        for ext in (".raw", ".hdr"):
            pairs += [(f"obs{b}{ext}", f"acquisition{b}{ext}") for b in blocks]
            pairs.append((f"obs_reference{ext}", f"reference{ext}"))
        for staged, piped in pairs:
            assert (tmp_path / staged).read_bytes() == (rundir / piped).read_bytes(), staged

    @pytest.mark.parametrize("formation", FORMATIONS)
    @pytest.mark.parametrize("method", METHODS)
    def test_reconstruct_and_evaluate_match_the_pipeline(self, tmp_path, formation, method):
        rundir = self.pipeline(tmp_path, formation, method)
        est, rep = tmp_path / "est", tmp_path / "rep.csv"
        assert run("reconstruct", "--in", rundir / "acquisition", "--method", method,
                   "--iters", 20, "--out", est) == 0
        assert run("evaluate", "--ref", rundir / "reference", "--est", est, "--out", rep) == 0
        np.testing.assert_allclose(read_datacube(str(est)).values,
                                   read_datacube(str(rundir / "estimate")).values,
                                   rtol=0, atol=1e-6)
        assert read_report(str(rep))[0].psnr == pytest.approx(
            read_report(str(rundir / "report.csv"))[0].psnr, abs=1e-4)


class TestFailures:
    def test_missing_input_nonzero_exit(self, capsys):
        assert run("reconstruct", "--in", "/nonexistent/x", "--out", "/tmp/y") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_ref_nonzero_exit(self, capsys):
        assert run("evaluate", "--ref", "/nonexistent/a", "--est", "/nonexistent/b",
                   "--out", "/tmp/r.csv") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_bad_blur_diameter(self, tmp_path, capsys, command):
        assert run(command, "--formation", "mrca", "--ni", 16, "--nj", 16,
                   "--rho-b", -1, "--out", tmp_path / "o") == 1
        assert "blur diameter" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("formation", ["cfa", "cassi", "multires"])
    def test_blur_on_a_device_without_a_pan_blur_rejected(self, tmp_path, capsys, monkeypatch,
                                                          command, formation):
        from mrcakit import harness

        def never(*args, **kwargs):
            raise AssertionError("built a device for a rejected flag")
        monkeypatch.setattr(harness, "build_formation", never)
        assert run(command, "--formation", formation, "--ni", 16, "--nj", 16,
                   "--rho-b", 2.0, "--out", tmp_path / "o") == 1
        assert (f"--rho-b: the {formation} formation applies no PAN blur"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("formation", ["cfa", "cassi"])
    def test_ratio_on_a_single_resolution_device_rejected(self, tmp_path, capsys, monkeypatch,
                                                          command, formation):
        from mrcakit import harness

        def never(*args, **kwargs):
            raise AssertionError("built a device for a rejected flag")
        monkeypatch.setattr(harness, "build_formation", never)
        assert run(command, "--formation", formation, "--ni", 16, "--nj", 16,
                   "--ratio", 4, "--out", tmp_path / "o") == 1
        assert (f"ratio: the {formation} formation has one resolution and no ratio, "
                "got ratio=4" in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_mask_on_a_multires_device_rejected(self, tmp_path, capsys, monkeypatch, command):
        from mrcakit import harness

        def never(*args, **kwargs):
            raise AssertionError("built a device for a rejected flag")
        monkeypatch.setattr(harness, "build_formation", never)
        assert run(command, "--formation", "multires", "--ni", 16, "--nj", 16,
                   "--mask", "quad4", "--out", tmp_path / "o") == 1
        assert ("mask: the multires formation has no mask, got mask='quad4'"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("formation", ["mrca", "multires"])
    def test_ratio_reaches_a_multiresolution_device(self, tmp_path, formation):
        obs = tmp_path / "obs"
        assert run("simulate", "--formation", formation, "--ni", 16, "--nj", 16,
                   "--ratio", 4, "--out", obs) == 0
        assert "ratio=4" in (tmp_path / "obs.preset").read_text().splitlines()

    @pytest.mark.parametrize("flag, value, field", [
        ("--noise-sigma", "nan", "noise_sigma"), ("--noise-sigma", "inf", "noise_sigma"),
        ("--lambda-bar", "inf", "lambda_bar"), ("--rho-b", "inf", "rho_b")])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, value, field):
        assert run("pipeline", "--ni", 16, "--nj", 16, "--iters", 2, flag, value,
                   "--out", tmp_path / "o") == 1
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("formation, seed", [("mrca", -1), ("cassi", -3)])
    def test_negative_seed_rejected_by_name(self, tmp_path, capsys, formation, seed):
        assert run("pipeline", "--formation", formation, "--seed", seed, "--ni", 16, "--nj", 16,
                   "--iters", 2, "--out", tmp_path / "o") == 1
        assert f"seed must be non-negative, got seed={seed}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_equalize_on_a_cfa_mosaic_rejected(self, tmp_path, capsys):
        assert run("pipeline", "--formation", "cfa", "--mask", "bt4pan", "--equalize",
                   "--ni", 16, "--nj", 16, "--iters", 2, "--out", tmp_path / "o") == 1
        assert "equalize needs both sensor classes; cfa lacks one" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_reconstruct_reference_cube_against_its_preset(self, tmp_path, capsys):
        obs = tmp_path / "obs"
        assert run("simulate", "--formation", "cfa", "--ni", 16, "--nj", 16, "--out", obs) == 0
        assert run("reconstruct", "--in", f"{obs}_reference", "--preset", f"{obs}.preset",
                   "--iters", 2, "--out", tmp_path / "est") == 1
        err = capsys.readouterr().err
        assert f"{obs}_reference: shape (16, 16, 4)" in err and "(16, 16, 1)" in err
        assert not (tmp_path / "est.raw").exists()

    def test_reconstruct_against_a_smaller_preset(self, tmp_path, capsys):
        for name, n in (("small", 16), ("big", 32)):
            assert run("simulate", "--ni", n, "--nj", n, "--out", tmp_path / name) == 0
        assert run("reconstruct", "--in", tmp_path / "big", "--preset", tmp_path / "small.preset",
                   "--iters", 2, "--out", tmp_path / "est") == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'big'}: shape (32, 32, 1), preset {tmp_path / 'small.preset'}" in err

    def test_evaluate_non_finite_estimate_names_its_file(self, tmp_path, capsys):
        ref = tmp_path / "ref"
        cube = synth_scene(SceneParams(12, 12, 3), seed=4)
        write_datacube(str(ref), cube)
        values = cube.values.copy()
        write_datacube(str(tmp_path / "est"), DataCube(values))
        values[3, 4, 1] = np.nan
        values.transpose(2, 0, 1).astype("<f4").tofile(tmp_path / "est.raw")
        assert run("evaluate", "--ref", ref, "--est", tmp_path / "est",
                   "--out", tmp_path / "r.csv") == 1
        assert f"{tmp_path / 'est'}.raw: 1 of 432 samples are not finite" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_bad_mask_name(self, tmp_path, capsys):
        assert run("simulate", "--formation", "cfa", "--mask", "nope",
                   "--ni", 8, "--nj", 8, "--nk", 3, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "error:" in err
