"""Gradient operators and the collaborative norms used to regularize them.

The gradient of an (ni, nj, nk) cube is a 4-way field (ni, nj, nk, 2)
holding backward differences along rows (direction 0) and columns
(direction 1).  Out-of-range neighbors count as zero, so the first row
(direction 0) and the first column (direction 1) carry the sample value
itself.  The adjoint is the exact transpose, a negative divergence,
certified by the inner-product test rather than transcribed from a closed
form.

The field is held plane-major: ``tv_forward`` returns the (ni, nj, nk, 2)
view of a (2, nk, ni, nj) array, so ``w.transpose(3, 2, 0, 1)`` is
C-contiguous and each (ni, nj) plane of one band and one direction is
one contiguous block.  The adjoint, the projections and the norms read
those planes in place; a field in any other memory order (a C-order
copy, say) gives the same bits, at the cost of a strided read or of one
plane-major copy.  ``np.empty_like`` and ``np.zeros_like`` keep the
layout, and the solver allocates its dual that way.

Three metric norms are shipped, each with the proximal operator of its
Fenchel conjugate (the projection onto the dual-norm ball of radius
lambda, applied pixel by pixel):

* ``l221``  sum over pixels of the l2 norm of the (nk x 2) gradient block;
* ``l111``  plain l1 over everything (LASSO);
* ``s1l1``  sum over pixels of the nuclear norm of the gradient block.

``s1l1``'s evaluation and projection share one Gram pass over the planes:
the 2x2 Gramians come from contiguous contractions, with the determinant
summed from the 2x2 minors (Cauchy-Binet), and the projection writes both
directions of a band after it has read both, so ``out`` may be ``w``
with no copy.  ``l221``'s block norms are one contraction of the planes.

Alternative gradient transforms can be plugged into the solver as any
LinearOp producing a 4-way field with a self-declared norm bound; ``l221``
and ``l111`` take any number of directions, ``s1l1`` exactly two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .operators import LinearOp

__all__ = [
    "TV_NORM_BOUND",
    "tv_forward",
    "tv_adjoint",
    "tv_op",
    "MetricNorm",
    "metric_norm",
    "g_eval",
    "prox_conj",
]

TV_NORM_BOUND = float(np.sqrt(8.0))

NORM_KINDS = ("l221", "l111", "s1l1")


# The gradient and its adjoint run over blocks of rows of about this many
# bytes of cube, so that the strided reads (forward) or writes (adjoint)
# of the cube's bands stay in a core's L2 cache between the band planes
_BLOCK_BYTES = 1 << 19


def _row_blocks(ni: int, nj: int, nk: int):
    """(start, stop) of each block of rows of an (ni, nj, nk) cube."""
    rows = max(1, _BLOCK_BYTES // (8 * nj * nk))
    return [(a, min(a + rows, ni)) for a in range(0, ni, rows)]


def tv_forward(x: np.ndarray) -> np.ndarray:
    """Per-band backward differences; returns the (ni, nj, nk, 2) field,
    a view of a new plane-major (2, nk, ni, nj) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-D cube, got shape {x.shape}")
    ni, nj, nk = x.shape
    planes = np.empty((2, nk, ni, nj))
    xt, (d0, d1) = x.transpose(2, 0, 1), planes
    d0[:, 0] = xt[:, 0]
    d1[:, :, 0] = xt[:, :, 0]
    for a, b in _row_blocks(ni, nj, nk):
        lo = max(a, 1)
        np.subtract(xt[:, lo:b], xt[:, lo - 1:b - 1], out=d0[:, lo:b])
        np.subtract(xt[:, a:b, 1:], xt[:, a:b, :-1], out=d1[:, a:b, 1:])
    return planes.transpose(2, 3, 1, 0)


def tv_adjoint(w: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`tv_forward` (a negative divergence), read
    from the field's planes in place whatever its memory order."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 4 or w.shape[3] != 2:
        raise ValueError(f"expected an (ni, nj, nk, 2) field, got shape {w.shape}")
    ni, nj, nk = w.shape[:3]
    d0, d1 = w.transpose(3, 2, 0, 1)
    out = np.empty((ni, nj, nk))
    div = out.transpose(2, 0, 1)
    div[:, -1] = d0[:, -1]
    blocks = _row_blocks(ni, nj, nk)
    buffer = np.empty((nk, blocks[0][1], nj))
    for a, b in blocks:
        hi, part = min(b, ni - 1), buffer[:, :b - a]
        np.subtract(d0[:, a:hi], d0[:, a + 1:hi + 1], out=div[:, a:hi])
        np.subtract(d1[:, a:b, :-1], d1[:, a:b, 1:], out=part[:, :, :-1])
        part[:, :, -1] = d1[:, a:b, -1]
        div[:, a:b] += part
    return out


def tv_op(shape: tuple[int, int, int]) -> LinearOp:
    """The gradient transform packaged as a LinearOp."""
    ni, nj, nk = shape
    return LinearOp(shape, (ni, nj, nk, 2), tv_forward, tv_adjoint, TV_NORM_BOUND, name="tv")


# ---------------------------------------------------------------------------
# Per-pixel singular values of the (nk x nm) gradient blocks
# ---------------------------------------------------------------------------


def _planes(w: np.ndarray) -> np.ndarray:
    """The (nm, nk, ni, nj) planes of an (ni, nj, nk, nm) field: a view of
    a plane-major field (as :func:`tv_forward` returns), a copy of any other."""
    planes = w.transpose(3, 2, 0, 1)
    return planes if planes.flags.c_contiguous else planes.copy()


def _gram2(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The planes of an (ni, nj, nk, 2) field and the entries g11, g22,
    g12 and determinant of its per-pixel 2x2 Gramians W^T W.

    The planes, (2, nk, ni, nj), are the field's own where they are
    contiguous, and a copy otherwise (:func:`_planes`); the Gramian comes
    from contiguous contractions of them.  The determinant is the sum of
    the squared nk(nk-1)/2 distinct 2x2 minors (Cauchy-Binet), which
    avoids the catastrophic cancellation of g11*g22 - g12^2 on near-rank-1
    blocks; with nk = 1 it is 0.
    """
    _check_two_directions(w)
    planes = _planes(w)
    b1, b2 = planes
    g11, g22, g12 = (np.einsum("kij,kij->ij", a, b) for a, b in ((b1, b1), (b2, b2), (b1, b2)))
    det, minor, term = np.zeros(w.shape[:2]), np.empty(w.shape[:2]), np.empty(w.shape[:2])
    for i, j in combinations(range(w.shape[2]), 2):
        np.multiply(b1[i], b2[j], out=minor)
        minor -= np.multiply(b1[j], b2[i], out=term)
        det += np.square(minor, out=minor)
    return planes, g11, g22, g12, det


def _l221_norms(w: np.ndarray) -> np.ndarray:
    """Per-pixel l2 norms of the (nk x nm) blocks of a 4-way field, in one
    contraction of its planes (no squared field is formed)."""
    planes = _planes(w)
    return np.sqrt(np.einsum("mkij,mkij->ij", planes, planes))


def _check_two_directions(w: np.ndarray) -> None:
    if w.ndim != 4 or w.shape[3] != 2:
        raise ValueError(f"s1l1 needs an (ni, nj, nk, 2) field, got shape {w.shape}")


def g_eval(kind: str, w: np.ndarray) -> float:
    """Evaluate the chosen metric norm on a gradient field."""
    w = np.asarray(w, dtype=np.float64)
    if kind == "l221":
        return float(np.sum(_l221_norms(w)))
    if kind == "l111":
        return float(np.sum(np.abs(_planes(w))))
    if kind == "s1l1":
        # nuclear norm of an (nk x 2) block: (s1 + s2)^2 = tr G + 2 sqrt(det G)
        _, g11, g22, _, det = _gram2(w)
        return float(np.sum(np.sqrt(g11 + g22 + 2.0 * np.sqrt(det))))
    raise ValueError(f"unknown norm kind {kind!r}; choose from {NORM_KINDS}")


def _prox_conj_s1l1(w: np.ndarray, lam: float, out: np.ndarray | None) -> np.ndarray:
    """Per-pixel projection onto the spectral-norm ball of radius lam.

    Every band's two output directions are written after both of its input
    directions have been read, so ``out`` may be ``w``: no copy of a
    plane-major field is taken."""
    (b1, b2), g11, g22, g12, det = _gram2(w)
    # Each map is formed in place, mostly in one it replaces, so the peak
    # holds four (ni, nj) maps beside the Gramian's four.
    # Gramian eigenvalues mu1 >= mu2 = det/mu1, free of the cancellation of
    # 0.5 * (tr - disc) on near-rank-1 blocks.  mu1 is 0 only on a zero
    # block, whose det (0 up to underflow) is left in place.
    t = np.square(g12)
    t *= 4.0
    mu1 = np.subtract(g11, g22)
    np.square(mu1, out=mu1)
    mu1 += t
    np.sqrt(mu1, out=mu1)
    np.add(g11, g22, out=t)
    t += mu1
    np.multiply(t, 0.5, out=mu1)  # 0.5 * (g11 + g22 + sqrt((g11 - g22)^2 + 4 g12^2))
    mu2 = np.divide(det, mu1, out=det, where=mu1 > 0.0)
    # singular values above lam are scaled to it: c = lam / max(xi, lam)
    c1 = np.sqrt(mu1, out=t)
    np.maximum(c1, lam, out=c1)
    np.divide(lam, c1, out=c1)
    c2 = np.sqrt(mu2)
    np.maximum(c2, lam, out=c2)
    np.divide(lam, c2, out=c2)
    # any scalar function of the symmetric 2x2 Gramian is alpha*I + beta*G;
    # an infinite gap sets beta to 0 where the eigenvalues (nearly) coincide
    gap = np.subtract(mu1, mu2, out=mu2)
    floor = np.maximum(mu1, 1e-300)
    floor *= 1e-12
    gap[gap <= floor] = np.inf
    beta = np.subtract(c1, c2, out=c2)
    beta /= gap
    alpha = np.subtract(c1, np.multiply(beta, mu1, out=mu1), out=c1)
    m00 = np.multiply(beta, g11, out=g11)
    m00 += alpha  # alpha + beta * g11
    m11 = np.multiply(beta, g22, out=g22)
    m11 += alpha
    m01 = np.multiply(beta, g12, out=g12)
    del floor, mu1, mu2, det, alpha, beta, c1, c2
    if out is None:
        out = np.empty_like(w)
    # band by band through three (ni, nj) maps (gap and t among them): a
    # field-sized temporary here lets the C heap shrink after each call
    # and fault back in the next
    o1, o2 = out.transpose(3, 2, 0, 1)
    s1, s2 = gap, t
    term = np.empty_like(m01)
    for k in range(len(b1)):
        np.multiply(b1[k], m00, out=s1)
        np.multiply(b1[k], m01, out=s2)
        np.add(s1, np.multiply(b2[k], m01, out=term), out=o1[k])  # b1[k] is read no more
        np.add(s2, np.multiply(b2[k], m11, out=term), out=o2[k])
    return out


def prox_conj(kind: str, w: np.ndarray, lam: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """Proximal operator of the Fenchel conjugate of ``lam * g``: the
    pixel-separable projection onto the dual-norm ball of radius lam.

    Idempotent and nonexpansive for every kind.  The projection is written
    into ``out`` when given (a float64 array of the field's shape, which
    may be ``w`` itself: the result is bitwise the same) and into a new
    array otherwise; either is returned.
    """
    if not 0 < lam < np.inf:  # s1l1's lam / max(xi, lam) is NaN at lam = inf
        raise ValueError(f"the regularization weight must be positive and finite, got {lam}")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"expected a 4-D field, got shape {w.shape}")
    if out is not None and (out.shape != w.shape or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 array of shape {w.shape}, "
                         f"got {out.dtype} {out.shape}")
    if kind == "l221":
        scale = 1.0 / np.maximum(_l221_norms(w) / lam, 1.0)
        return np.multiply(w, scale[:, :, None, None], out=out)
    if kind == "l111":
        return np.clip(w, -lam, lam, out=out)
    if kind == "s1l1":
        return _prox_conj_s1l1(w, lam, out)
    raise ValueError(f"unknown norm kind {kind!r}; choose from {NORM_KINDS}")


@dataclass(frozen=True)
class MetricNorm:
    """A named metric norm bundling evaluation and conjugate prox."""

    kind: str

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; choose from {NORM_KINDS}")

    def eval(self, w: np.ndarray) -> float:
        return g_eval(self.kind, w)

    def prox_conj(self, w: np.ndarray, lam: float,
                  out: np.ndarray | None = None) -> np.ndarray:
        return prox_conj(self.kind, w, lam, out)


def metric_norm(kind: str) -> MetricNorm:
    return MetricNorm(kind)
