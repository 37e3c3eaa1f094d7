"""Focal-plane mask construction and the mask tile file format.

Binary masks select, per pixel, which channel reaches the sensor.  Periodic
tiles describe one period of the layout: entry -1 marks a panchromatic
(high-resolution, spectrally wide) pixel, entries 0..nk-1 mark the channel
of a low-resolution sample.  The built-in 4x4 tiles interleave a PAN
checkerboard (half of the pixels) with 4 or 8 cycled channels; Bayer is the
classic 2x2 RGGB square with the two greens on opposite vertices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datacube import check_integer, text_lines

__all__ = [
    "Mask",
    "PeriodicTile",
    "BUILTIN_TILES",
    "builtin_tile",
    "periodic_mask",
    "random_code_mask",
    "parse_mask_file",
    "write_mask_file",
]

PAN = -1  # tile entry for panchromatic pixels


@dataclass(frozen=True)
class Mask:
    """Per-pixel per-band multiplicative weights.

    ``values`` has shape (ni, nj, nbands); ``band_roles`` labels each band
    with the channel index it carries, or -1 for a PAN band.
    """

    values: np.ndarray
    band_roles: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"mask must be 3-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("mask entries must be finite and nonnegative")
        if len(self.band_roles) != v.shape[2]:
            raise ValueError("need one role per mask band")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "band_roles", tuple(int(r) for r in self.band_roles))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def pixel_support(self) -> np.ndarray:
        """Boolean (ni, nj) map of pixels covered by any band."""
        return np.any(self.values > 0, axis=2)


@dataclass(frozen=True)
class PeriodicTile:
    """One period of a mask layout: (th, tw) integer band assignments."""

    cells: np.ndarray
    nchannels: int

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=np.int64)
        if c.ndim != 2 or min(c.shape) < 1:
            raise ValueError("tile must be a non-empty 2-D integer array")
        if self.nchannels < 1:
            raise ValueError("tile needs at least one channel")
        if c.min() < PAN or c.max() >= self.nchannels:
            raise ValueError(
                f"tile entries must lie in [-1, {self.nchannels - 1}], "
                f"got range [{c.min()}, {c.max()}]")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "cells", c)
        object.__setattr__(self, "nchannels", int(self.nchannels))

    @property
    def period(self) -> tuple[int, int]:
        return self.cells.shape


def _tile_to_full(tile: PeriodicTile, ni: int, nj: int) -> np.ndarray:
    th, tw = tile.period
    reps = (-(-ni // th), -(-nj // tw))
    return np.tile(tile.cells, reps)[:ni, :nj]


# Fixed, documented layouts.  bt4pan/bt8pan put PAN on the (i+j)-even
# checkerboard; the remaining cells cycle the channels (each channel twice
# per 4x4 period for bt4pan, once for bt8pan).  quad4 is the plain 4-band
# 2x2 periodic mask with no PAN pixels.
BUILTIN_TILES: dict[str, PeriodicTile] = {
    "bayer": PeriodicTile(np.array([[0, 1], [1, 2]]), 3),
    "quad4": PeriodicTile(np.array([[0, 1], [2, 3]]), 4),
    "bt4pan": PeriodicTile(np.array([
        [PAN, 0, PAN, 1],
        [2, PAN, 3, PAN],
        [PAN, 1, PAN, 0],
        [3, PAN, 2, PAN],
    ]), 4),
    "bt8pan": PeriodicTile(np.array([
        [PAN, 0, PAN, 1],
        [2, PAN, 3, PAN],
        [PAN, 4, PAN, 5],
        [6, PAN, 7, PAN],
    ]), 8),
}


def builtin_tile(name: str) -> PeriodicTile:
    try:
        return BUILTIN_TILES[name]
    except KeyError:
        raise ValueError(f"unknown mask name {name!r}; choose from {sorted(BUILTIN_TILES)}")


def periodic_mask(tile: PeriodicTile, ni: int, nj: int) -> tuple[Mask, Mask]:
    """Tile the layout over (ni, nj) and split into (lri_mask, pan_mask).

    Channel entries populate the multi-band LRI mask, PAN entries the
    single-band PAN mask; the two pixel supports are disjoint by
    construction.  Warns when a channel never appears in the period, since
    that channel is then unrecoverable from the acquisition.
    """
    full = _tile_to_full(tile, ni, nj)
    nk = tile.nchannels
    h_lri = np.zeros((ni, nj, nk))
    for k in range(nk):
        h_lri[:, :, k] = full == k
    h_pan = (full == PAN).astype(np.float64)[:, :, None]
    missing = [k for k in range(nk) if not np.any(tile.cells == k)]
    if missing:
        warnings.warn(f"tile never assigns channels {missing}: they cannot be reconstructed",
                      stacklevel=2)
    return (Mask(h_lri, tuple(range(nk))), Mask(h_pan, (PAN,)))


def random_code_mask(ni: int, nj: int, nk: int, seed: int = 0) -> Mask:
    """Single random binary code shared by all bands (coded-aperture style).

    Unlike tiled channel-selection masks, every band sees the same 2-D
    Bernoulli(1/2) pattern.
    """
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    code = (rng.random((ni, nj)) < 0.5).astype(np.float64)
    return Mask(np.repeat(code[:, :, None], nk, axis=2), tuple(range(nk)))


# ---------------------------------------------------------------------------
# Tile file format: first line "th tw nk", then th rows of tw integers
# (-1 for PAN), under the comment rule of datacube.text_lines.
# ---------------------------------------------------------------------------


def write_mask_file(path: str, tile: PeriodicTile) -> None:
    th, tw = tile.period
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{th} {tw} {tile.nchannels}\n")
        for row in tile.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def parse_mask_file(path: str) -> PeriodicTile:
    """Read a tile file; every error names ``path``."""
    with open(path, "r", encoding="ascii") as fh:
        lines = text_lines(fh.read())
    try:
        if not lines:
            raise ValueError("empty mask file")
        if len(lines[0].split()) != 3:
            raise ValueError(f"header must be 'th tw nk', got {lines[0]!r}")
        th, tw, nk = (int(v) for v in lines[0].split())
        rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
        if len(rows) != th:
            raise ValueError(f"expected {th} tile rows, found {len(rows)}")
        for ln, row in zip(lines[1:], rows):
            if len(row) != tw:
                raise ValueError(f"row {ln!r} has {len(row)} entries, expected {tw}")
        return PeriodicTile(np.array(rows), nk)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
