import re

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
        with pytest.raises(ValueError, match="1 of 4 samples are not finite"):
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

    # Each label the .hdr's comma-joined ASCII line cannot carry: a comma
    # splits into two labels on reading, a newline breaks the header, the
    # reader strips spaces, "" reads back as a missing label, and a
    # non-ASCII label fails only after the .raw is written.
    @pytest.mark.parametrize("label", ["red, near-ir", "red\nnir", " red ", "", "rouge-é"],
                             ids=["comma", "newline", "surrounding-spaces", "empty", "non-ascii"])
    def test_rejects_a_label_the_header_cannot_carry(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            DataCube(np.zeros((2, 2, 2)), band_labels=("blue", label))


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

    def test_valid_labels_round_trip_unchanged(self, tmp_path):
        labels = ("near ir", "B8A=865nm", "#3", "x", "(red)")
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((2, 2, 5)), band_labels=labels))
        assert read_datacube(stem).band_labels == labels

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

    def test_errors_name_the_file(self, tmp_path):
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((4, 4, 2))))
        with open(stem + ".raw", "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(ValueError, match=f"^{re.escape(stem)}.raw: payload"):
            read_datacube(stem)
        with open(stem + ".hdr", "w") as fh:
            fh.write("ni=2\nnj=2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(stem)}.hdr: missing .*: 'nk'"):
            read_datacube(stem)
        with open(stem + ".hdr", "w") as fh:
            fh.write("ni=2\nnj=2\nnk=two\nrho=1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(stem)}.hdr: .*'two'"):
            read_datacube(stem)

    def test_non_finite_payload_names_the_raw_file(self, tmp_path):
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((2, 2, 2))))
        payload = np.zeros(8, dtype="<f4")
        payload[[1, 6]] = [np.nan, np.inf]
        payload.tofile(stem + ".raw")
        with pytest.raises(ValueError) as info:
            read_datacube(stem)
        assert str(info.value) == f"{stem}.raw: 2 of 8 samples are not finite"

    def test_malformed_header_line_names_the_hdr_file(self, tmp_path):
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((2, 2, 1))))
        with open(stem + ".hdr", "w") as fh:
            fh.write("ni=2\nnj 2\n")
        with pytest.raises(ValueError) as info:
            read_datacube(stem)
        assert str(info.value) == f"{stem}.hdr: malformed line 'nj 2', expected key=value"

    def test_header_comments_and_blank_lines_skipped(self, tmp_path):
        stem = str(tmp_path / "cube")
        cube = DataCube(np.arange(4.0).reshape(2, 2, 1), rho=4.0)
        write_datacube(stem, cube)
        with open(stem + ".hdr") as fh:
            text = fh.read()
        with open(stem + ".hdr", "w") as fh:
            fh.write("# written by hand\n\n" + text.replace("nk=1\n", "  nk = 1  \n# end\n"))
        back = read_datacube(stem)
        assert back.shape == cube.shape and back.rho == 4.0
        np.testing.assert_array_equal(back.values, cube.values)

    def test_bad_rho_names_the_hdr_file(self, tmp_path):
        stem = str(tmp_path / "cube")
        write_datacube(stem, DataCube(np.zeros((2, 2, 1))))
        with open(stem + ".hdr", "w") as fh:
            fh.write("ni=2\nnj=2\nnk=1\nrho=0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(stem)}.hdr: dynamic range"):
            read_datacube(stem)
