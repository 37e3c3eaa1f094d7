import numpy as np
import pytest

from mrcakit.datacube import (
    DataCube,
    read_datacube,
    write_datacube,
)


class TestDataCube:
    def test_rejects_nan(self):
        vals = np.zeros((2, 2, 1))
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DataCube(vals)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError, match="positive"):
            DataCube(np.zeros((2, 2, 1)), rho=0.0)

    @pytest.mark.parametrize("rho", [float("inf"), float("nan")])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match=f"finite, got rho={rho}"):
            DataCube(np.zeros((2, 2, 1)), rho=rho)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            DataCube(np.zeros((2, 2)))

    def test_values_immutable(self):
        cube = DataCube(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            cube.values[0, 0, 0] = 1.0

    def test_default_band_labels(self):
        cube = DataCube(np.zeros((2, 2, 3)))
        assert cube.band_labels == ("b0", "b1", "b2")


class TestFileFormat:
    def test_round_trip(self, tmp_path, rng):
        cube = DataCube(rng.random((6, 5, 3)).astype(np.float32), rho=255.0,
                        band_labels=("red", "green", "blue"))
        stem = str(tmp_path / "cube")
        write_datacube(stem, cube)
        back = read_datacube(stem)
        assert back.shape == cube.shape
        assert back.rho == cube.rho
        assert back.band_labels == cube.band_labels
        np.testing.assert_array_equal(back.values, cube.values)

    def test_payload_is_band_sequential_float32(self, tmp_path):
        cube = DataCube(np.arange(8, dtype=float).reshape(2, 2, 2))
        stem = str(tmp_path / "cube")
        write_datacube(stem, cube)
        payload = np.fromfile(stem + ".raw", dtype="<f4")
        np.testing.assert_array_equal(
            payload.reshape(2, 2, 2), cube.values.transpose(2, 0, 1))

    def test_truncated_payload_rejected(self, tmp_path):
        cube = DataCube(np.zeros((4, 4, 2)))
        stem = str(tmp_path / "cube")
        write_datacube(stem, cube)
        with open(stem + ".raw", "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(ValueError, match="payload"):
            read_datacube(stem)

    def test_missing_header_key(self, tmp_path):
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((2, 2, 1))))
        with open(stem + ".hdr", "w") as fh:
            fh.write("ni=2\nnj=2\n")
        with pytest.raises(ValueError, match="missing"):
            read_datacube(stem)
