import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mrcakit.formation import mask_apply, sum_channels
from mrcakit.masks import (
    BUILTIN_TILES,
    Mask,
    PeriodicTile,
    builtin_tile,
    parse_mask_file,
    periodic_mask,
    random_code_mask,
    write_mask_file,
)
from mrcakit.operators import compose


class TestBayer:
    def test_every_block_has_1r_2g_1b(self):
        mask = periodic_mask(BUILTIN_TILES["bayer"], 6, 6)[0]
        for i in range(0, 6, 2):
            for j in range(0, 6, 2):
                block = mask.values[i:i + 2, j:j + 2, :]
                assert block[:, :, 0].sum() == 1  # R
                assert block[:, :, 1].sum() == 2  # G
                assert block[:, :, 2].sum() == 1  # B

    def test_greens_on_opposite_vertices(self):
        mask = periodic_mask(BUILTIN_TILES["bayer"], 2, 2)[0]
        assert mask.values[0, 1, 1] == 1 and mask.values[1, 0, 1] == 1
        assert mask.values[0, 0, 0] == 1  # R top-left
        assert mask.values[1, 1, 2] == 1

    def test_column_sums_over_one_tile(self):
        lex = periodic_mask(BUILTIN_TILES["bayer"], 2, 2)[0].values.reshape(4, 3)
        np.testing.assert_array_equal(lex.sum(axis=0), [1, 2, 1])

    def test_partition_of_unity_per_pixel(self, rng):
        # equal-band cube masked then summed reproduces the scalar image
        mask = periodic_mask(BUILTIN_TILES["bayer"], 4, 6)[0]
        img = rng.random((4, 6))
        cube = np.repeat(img[:, :, None], 3, axis=2)
        op = compose(sum_channels(cube.shape), mask_apply(mask))
        np.testing.assert_allclose(op.apply(cube), img, atol=1e-15)


class TestPeriodicMask:
    def test_all_pan_tile(self):
        tile = PeriodicTile(np.full((2, 2), -1), nchannels=3)
        with pytest.warns(UserWarning, match="cannot be reconstructed"):
            lri, pan = periodic_mask(tile, 4, 4)
        assert not lri.values.any()
        assert pan.values.all()

    def test_bt4pan_counts(self):
        # half the pixels PAN, each channel twice per 4x4 period
        lri, pan = periodic_mask(builtin_tile("bt4pan"), 4, 4)
        assert pan.values.sum() == 8
        np.testing.assert_array_equal(lri.values.sum(axis=(0, 1)), [2, 2, 2, 2])

    def test_bt8pan_counts(self):
        lri, pan = periodic_mask(builtin_tile("bt8pan"), 4, 4)
        assert pan.values.sum() == 8
        np.testing.assert_array_equal(lri.values.sum(axis=(0, 1)), np.ones(8))

    def test_supports_disjoint(self):
        for name in ("bt4pan", "bt8pan"):
            lri, pan = periodic_mask(builtin_tile(name), 8, 12)
            assert not np.any(lri.pixel_support() & pan.pixel_support())

    def test_tiling_covers_odd_sizes(self):
        lri, pan = periodic_mask(builtin_tile("bt4pan"), 5, 7)
        assert lri.shape == (5, 7, 4)
        combined = lri.pixel_support() | pan.pixel_support()
        assert combined.all()

    def test_every_pixel_exactly_one_class(self):
        lri, pan = periodic_mask(builtin_tile("bt4pan"), 8, 8)
        per_pixel = lri.values.sum(axis=2) + pan.values.sum(axis=2)
        np.testing.assert_array_equal(per_pixel, np.ones((8, 8)))

    def test_binary_mask_unit_norm(self):
        lri, _ = periodic_mask(builtin_tile("quad4"), 4, 4)
        assert np.isin(lri.values, (0, 1)).all()
        assert mask_apply(lri).norm_bound == 1.0


class TestMaskType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Mask(-np.ones((2, 2, 1)), (0,))

    def test_rejects_role_mismatch(self):
        with pytest.raises(ValueError, match="role"):
            Mask(np.ones((2, 2, 2)), (0,))

    def test_random_code_shared_across_bands(self):
        mask = random_code_mask(6, 6, 3, seed=9)
        assert np.isin(mask.values, (0, 1)).all()
        for k in (1, 2):
            np.testing.assert_array_equal(mask.values[:, :, k], mask.values[:, :, 0])

    def test_random_code_opens_half_the_pixels(self):
        # Bernoulli(1/2): 4096 draws stay within 5 standard deviations of 0.5
        mean = random_code_mask(64, 64, 2, seed=4).values.mean()
        assert abs(mean - 0.5) < 5 * 0.5 / 64


class TestTileFile:
    def test_round_trip_builtins(self, tmp_path):
        for name, tile in BUILTIN_TILES.items():
            path = str(tmp_path / f"{name}.txt")
            write_mask_file(path, tile)
            back = parse_mask_file(path)
            assert back.nchannels == tile.nchannels
            np.testing.assert_array_equal(back.cells, tile.cells)

    def test_trivial_single_channel(self, tmp_path):
        path = str(tmp_path / "one.txt")
        path_text = "1 1 1\n0\n"
        open(path, "w").write(path_text)
        tile = parse_mask_file(path)
        assert tile.period == (1, 1) and tile.nchannels == 1

    def test_malformed_row_length(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        open(path, "w").write("2 2 3\n0 1\n1\n")
        with pytest.raises(ValueError, match="entries"):
            parse_mask_file(path)

    def test_malformed_header(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        open(path, "w").write("2 2\n0 1\n1 2\n")
        with pytest.raises(ValueError, match="header"):
            parse_mask_file(path)

    def test_out_of_range_entry(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        open(path, "w").write("1 2 2\n0 5\n")
        with pytest.raises(ValueError, match="entries"):
            parse_mask_file(path)

    @pytest.mark.parametrize("text", ["1 2 2\n0 5\n", "1 2 2\n0 x\n", "1 2\n0 1\n", "# empty\n"])
    def test_errors_name_the_file(self, tmp_path, text):
        path = str(tmp_path / "bad.txt")
        open(path, "w").write(text)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
            parse_mask_file(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "tile.txt")
        open(path, "w").write("# a 2x2 tile\n\n2 2 3\n  0 1  \n# second row\n1 2\n")
        np.testing.assert_array_equal(parse_mask_file(path).cells, [[0, 1], [1, 2]])

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(th=st.integers(1, 4), tw=st.integers(1, 4), nk=st.integers(1, 5),
           seed=st.integers(0, 10 ** 6))
    def test_round_trip_random_tiles(self, tmp_path, th, tw, nk, seed):
        cells = np.random.default_rng(seed).integers(-1, nk, size=(th, tw))
        tile = PeriodicTile(cells, nk)
        path = str(tmp_path / f"t{seed}.txt")
        write_mask_file(path, tile)
        np.testing.assert_array_equal(parse_mask_file(path).cells, cells)
