"""Reconstruction quality indices and report serialization.

PSNR uses the reference cube's declared dynamic range as the peak (not the
empirical max), SAM is the mean per-pixel spectral angle in degrees, SSIM
is the classic windowed index (11x11 Gaussian window, sigma 1.5, applied as
two 1-D passes of 11 taps; constants (0.01 rho)^2 and (0.03 rho)^2)
averaged over bands.  All three hit their perfect values (+inf, 0, 1)
exactly when the estimate equals the reference.  Report columns, in CSV and
JSON alike, are the fields of :class:`QualityReport` in declaration order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datacube import PARSE_CELL, DataCube
from .formation import compression_ratio  # re-exported

__all__ = [
    "psnr",
    "sam",
    "ssim",
    "compression_ratio",
    "QualityReport",
    "write_report",
    "read_report",
]


def _check_same_shape(ref: DataCube, est: DataCube) -> None:
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: reference {ref.shape} vs estimate {est.shape}")


def psnr(ref: DataCube, est: DataCube) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the MSE vanishes."""
    _check_same_shape(ref, est)
    mse = float(np.mean((ref.values - est.values) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(ref.rho ** 2 / mse)


def sam(ref: DataCube, est: DataCube) -> float:
    """Mean per-pixel angle between reference and estimated spectra, in
    degrees.

    Computed through the chord length of the unit spectra
    (``2 asin(|u - v|/2)``), which is exact for identical inputs and does
    not lose precision at small angles the way the arccos form does.
    Pixels where either spectrum is the zero vector are left out of the
    average; NaN when no pixel is left.
    """
    _check_same_shape(ref, est)
    _check_bands(ref.nk)
    r = ref.values.reshape(-1, ref.nk)
    e = est.values.reshape(-1, est.nk)
    nr = np.linalg.norm(r, axis=1)
    ne = np.linalg.norm(e, axis=1)
    valid = (nr > 0) & (ne > 0)
    if not valid.any():
        return math.nan
    u = r[valid] / nr[valid, None]
    v = e[valid] / ne[valid, None]
    chord = np.linalg.norm(u - v, axis=1)
    angles = np.degrees(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    return float(np.mean(angles))


_SSIM_WINDOW_SIZE = 11
_SSIM_SIGMA = 1.5
# The 11x11 Gaussian window is the outer product of these unit-sum taps.
_SSIM_TAPS = np.exp(-0.5 * ((np.arange(_SSIM_WINDOW_SIZE) - (_SSIM_WINDOW_SIZE - 1) / 2.0)
                            / _SSIM_SIGMA) ** 2)
_SSIM_TAPS /= _SSIM_TAPS.sum()


def _ssim_filter(maps: np.ndarray) -> np.ndarray:
    """Valid-mode Gaussian window over the last two axes, as two 1-D passes."""
    rows = sliding_window_view(maps, _SSIM_WINDOW_SIZE, axis=-1) @ _SSIM_TAPS
    return sliding_window_view(rows, _SSIM_WINDOW_SIZE, axis=-2) @ _SSIM_TAPS


def _check_ssim_size(ni: int, nj: int) -> None:
    if min(ni, nj) < _SSIM_WINDOW_SIZE:
        raise ValueError(f"image {ni}x{nj} is smaller than the {_SSIM_WINDOW_SIZE}-tap window")


def _check_bands(nk: int) -> None:
    if nk < 2:
        raise ValueError(f"spectral angles need at least two bands, got {nk}")


def check_report_shape(ref: DataCube) -> None:
    """Reject a reference that a report cannot score: below the SSIM window, or one band."""
    _check_ssim_size(ref.ni, ref.nj)
    _check_bands(ref.nk)


def ssim(ref: DataCube, est: DataCube) -> float:
    """Structural similarity, averaged over bands (Gaussian window)."""
    _check_same_shape(ref, est)
    _check_ssim_size(ref.ni, ref.nj)
    c1 = (0.01 * ref.rho) ** 2
    c2 = (0.03 * ref.rho) ** 2
    a = ref.values.transpose(2, 0, 1)
    b = est.values.transpose(2, 0, 1)
    # The local moments of every band in one call: (5, nk, ni - 10, nj - 10).
    mu_a, mu_b, aa, bb, ab = _ssim_filter(np.stack([a, b, a * a, b * b, a * b]))
    var_a = aa - mu_a ** 2
    var_b = bb - mu_b ** 2
    cov = ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(np.mean(num / den, axis=(1, 2))))


@dataclass(frozen=True)
class QualityReport:
    """One comparison row, mirroring the experiment tables."""

    dataset: str
    formation: str
    reconstruction: str
    lambda_bar: float | None
    ssim: float
    psnr: float
    sam: float
    compression_ratio: float


def write_report(path: str, rows: list[QualityReport], fmt: str = "csv") -> None:
    """Serialize report rows as CSV (header + rows) or a JSON array.

    Infinite PSNR is written as ``inf`` in CSV and as ``Infinity`` in JSON
    (both read back to an infinite float).
    """
    if fmt == "csv":
        with open(path, "w", newline="", encoding="ascii") as fh:
            header = [f.name for f in fields(QualityReport)]
            csv.writer(fh).writerows([header, *map(astuple, rows)])
    elif fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps([asdict(r) for r in rows], indent=2) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}; choose csv or json")


def read_report(path: str) -> list[QualityReport]:
    """Read back a report written by :func:`write_report` (by extension)."""
    if path.endswith(".json"):
        with open(path, "r", encoding="ascii") as fh:
            return [QualityReport(**row) for row in json.load(fh)]
    with open(path, "r", newline="", encoding="ascii") as fh:
        return [QualityReport(**{f.name: PARSE_CELL[f.type](rec[f.name])
                                 for f in fields(QualityReport)})
                for rec in csv.DictReader(fh)]
