"""Datacube container, raw file I/O and the package's text rule.

A datacube is a 3-way array (rows x cols x bands).  All public indices are
0-based.  The operators act on (ni, nj, nk) arrays, and stacked
observations ravel in numpy's row-major order.

Acquisitions (single-channel raw images) are handled as plain 2-D
``float64`` arrays of shape (ni, nj); stacked multi-part acquisitions as
1-D concatenations (see :mod:`mrcakit.operators`).

Text formats (``.hdr``, ``.preset``, mask tiles) skip blank lines and ``#``
comments; the first two hold ``key=value`` lines.  Read errors name the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataCube",
    "read_datacube",
    "write_datacube",
]


@dataclass(frozen=True)
class DataCube:
    """Immutable image datacube with a declared dynamic range.

    Parameters
    ----------
    values : ndarray, shape (ni, nj, nk)
        Sample values; converted to read-only float64.
    rho : float
        Peak intensity of the data (e.g. 255 for 8-bit data). Strictly
        positive.
    band_labels : tuple of str, optional
        One label per band; defaults to ``b0, b1, ...``.  Each must be
        non-empty printable ASCII with no comma and no surrounding spaces,
        so that the ``.hdr`` sidecar carries it unchanged.
    """

    values: np.ndarray
    rho: float = 1.0
    band_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"datacube must be 3-D with positive dims, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{np.sum(~np.isfinite(v))} of {v.size} samples are not finite")
        if not 0 < float(self.rho) < np.inf:
            raise ValueError(f"dynamic range must be positive and finite, got rho={self.rho}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "rho", float(self.rho))
        labels = tuple(self.band_labels) or tuple(f"b{k}" for k in range(v.shape[2]))
        if len(labels) != v.shape[2]:
            raise ValueError("need one band label per band")
        for label in labels:  # each must survive the .hdr's comma-joined ASCII line
            if not (isinstance(label, str) and label and label == label.strip()
                    and label.isascii() and label.isprintable() and "," not in label):
                raise ValueError(f"band label {label!r} cannot be stored in a .hdr: "
                                 "use non-empty printable ASCII with no comma and "
                                 "no surrounding spaces")
        object.__setattr__(self, "band_labels", labels)

    @property
    def ni(self) -> int:
        return self.values.shape[0]

    @property
    def nj(self) -> int:
        return self.values.shape[1]

    @property
    def nk(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


# ---------------------------------------------------------------------------
# File format: <stem>.raw holds the payload as little-endian float32, planar
# band-sequential (band 0 row-major plane, then band 1, ...); <stem>.hdr is a
# key=value text sidecar (ni, nj, nk, rho, bands).
# ---------------------------------------------------------------------------


def text_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor comments."""
    return [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]


def parse_key_values(text: str, source: str) -> dict[str, str]:
    """The ``key=value`` pairs of ``text``; errors name ``source``."""
    pairs = {}
    for line in text_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{source}: malformed line {line!r}, expected key=value")
        pairs[key.strip()] = value.strip()
    return pairs


def format_key_values(pairs: dict) -> str:
    return "".join(f"{key}={value}\n" for key, value in pairs.items())


# How a text cell reads, by the annotation of the dataclass field it fills.
PARSE_CELL = {"str": str, "int": int, "float": float,
              "float | None": lambda text: float(text) if text else None}


def _stem(path: str) -> str:
    return path[:-4] if path.endswith((".raw", ".hdr")) else path


def write_datacube(path: str, cube: DataCube) -> None:
    """Write ``<stem>.raw`` plus the ``<stem>.hdr`` text sidecar."""
    stem = _stem(path)
    planar = cube.values.transpose(2, 0, 1)
    with open(stem + ".raw", "wb") as fh:
        fh.write(np.ascontiguousarray(planar, dtype="<f4").tobytes())
    with open(stem + ".hdr", "w", encoding="ascii") as fh:
        fh.write(format_key_values({"ni": cube.ni, "nj": cube.nj, "nk": cube.nk,
                                    "rho": cube.rho, "bands": ",".join(cube.band_labels)}))


def read_datacube(path: str) -> DataCube:
    """Read a datacube written by :func:`write_datacube`."""
    stem = _stem(path)
    hdr, raw = stem + ".hdr", stem + ".raw"
    with open(hdr, "r", encoding="ascii") as fh:
        header = parse_key_values(fh.read(), hdr)
    try:
        ni, nj, nk = int(header["ni"]), int(header["nj"]), int(header["nk"])
        rho = float(header["rho"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{hdr}: missing or non-numeric size or rho: {exc}") from None
    labels = tuple(header["bands"].split(",")) if header.get("bands") else ()
    payload = np.fromfile(raw, dtype="<f4")
    if payload.size != ni * nj * nk:
        raise ValueError(f"{raw}: payload holds {payload.size} samples, header says {ni * nj * nk}")
    values = payload.reshape(nk, ni, nj).transpose(1, 2, 0).astype(np.float64)
    try:
        return DataCube(values, rho=rho, band_labels=labels)
    except ValueError as exc:  # the samples come from the .raw, all else from the .hdr
        source = raw if not np.isfinite(values).all() else hdr
        raise ValueError(f"{source}: {exc}") from None
