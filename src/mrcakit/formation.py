"""Elementary acquisition blocks and the assembled compressed-acquisition model.

Each block is a :class:`~mrcakit.operators.LinearOp` with an exact adjoint
and a certified norm bound:

* ``spectral_degrade``   band mixing by a weight matrix (HRI branch);
* ``spatial_convolve``   per-band circular convolution (LRI branch blur);
* ``decimate``           regular spatial subsampling;
* ``mask_apply``         per-pixel per-band weighting (self-adjoint);
* ``shift_apply``        injective sample relocation (norm 1);
* ``sum_channels``       collapse of the band dimension onto one focal plane;
* ``mosaic``             the three above as one block, shifted or not,
  with no canvas of the shifted cube;
* ``butterworth_blur``   zero-phase frequency-domain low-pass.

``build_formation`` wires them into the four shipped presets: the full
multiresolution compressed acquisition (PAN and masked multispectral
samples summed on one focal plane), the plain multiresolution bundle, the
filter-array mosaic, and the coded-aperture acquisition with the one-pixel
per-band horizontal shear.

Three device constants are fixed rather than configurable: one PAN
channel (the mean of the bands), a Gaussian LRI blur with gain 0.3 at the
Nyquist frequency of the 1/ratio grid, and a first-order Butterworth PAN
blur.  A preset text naming one of their retired keys (``np_bands``,
``lri_blur_gain``, ``butter_order``) is rejected with the key named.

Every preset carries its exact norm.  ``mrca`` and ``multires`` commute
with shifts by the tile period resp. the ratio; their :class:`AliasGram`
computes their norm from one small matrix per coarse frequency.  ``cfa``
and ``cassi`` keep the diagonal-Gramian bound of :func:`mosaic`, the only
exact rule for cassi's random code.  The same AA* is the model's ``gram``:
the diagonal (:class:`DiagonalGram`) on ``cfa`` and ``cassi``, the
alias-domain blocks (:class:`AliasGram`) on ``mrca`` and ``multires``.
``mrca`` applies A and A* in the alias domain too, from its Gram; the
composition of the blocks above stays its definition.

Convolution uses circular boundaries throughout: the adjoint is then an
exact correlation and the circulant spectral norm (max DFT magnitude of the
padded kernel) is exact, not just an upper bound.  ``spatial_convolve`` and
``butterworth_blur`` share one path: real FFTs (``scipy.fft.rfft2`` /
``irfft2``) against the half spectrum of the real kernel, and its
conjugate for the adjoint, both cached at build time.  The coefficient-l2
value is reported alongside for comparison, but it is NOT certified: for
the nonnegative kernel [0.5, 0.5] it gives sqrt(0.5) while the true norm
(the DC gain) is 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

from .datacube import PARSE_CELL, format_key_values, parse_key_values
from .masks import (
    PAN,
    Mask,
    BUILTIN_TILES,
    PeriodicTile,
    builtin_tile,
    parse_mask_file,
    periodic_mask,
    random_code_mask,
)
from .operators import LinearOp, compose, stack

__all__ = [
    "SpectralWeights",
    "BlurBank",
    "ShiftMap",
    "ConvNormBound",
    "average_weights",
    "gaussian_blur_bank",
    "spectral_degrade",
    "spatial_convolve",
    "conv_norm_bound",
    "decimate",
    "mask_apply",
    "shift_apply",
    "cassi_shift_map",
    "sum_channels",
    "mosaic",
    "butterworth_blur",
    "DiagonalGram",
    "AliasGram",
    "FormationPreset",
    "FormationModel",
    "formation_preset",
    "build_formation",
    "compression_ratio",
    "add_gaussian_noise",
    "equalize_lri_stats",
]

PRESET_NAMES = ("mrca", "multires", "cfa", "cassi")
PAN_BLUR_PRESETS = ("mrca",)  # the presets whose build applies hri_blur and rho_b
RATIO_PRESETS = ("mrca", "multires")  # the presets whose build reads ratio


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralWeights:
    """Spectral responses: row j holds the band weights of output channel j."""

    W: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.W, dtype=np.float64)
        if w.ndim != 2 or min(w.shape) < 1:
            raise ValueError(f"weights must be 2-D (np, nk), got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "W", w)

    @property
    def n_out(self) -> int:
        return self.W.shape[0]

    @property
    def n_in(self) -> int:
        return self.W.shape[1]


def average_weights(nk: int) -> SpectralWeights:
    """Channel-average model: the one PAN channel is the mean of the nk bands."""
    return SpectralWeights(np.full((1, nk), 1.0 / nk))


@dataclass(frozen=True)
class BlurBank:
    """One 2-D convolution kernel per band, shape (kh, kw, nk).

    The kernel anchor is the (kh//2, kw//2) cell, so even extents lean one
    sample toward the origin.
    """

    kernels: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernels, dtype=np.float64)
        if k.ndim != 3 or min(k.shape) < 1:
            raise ValueError(f"kernel bank must be 3-D (kh, kw, nk), got {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("kernels must be finite")
        k = k.copy()
        k.flags.writeable = False
        object.__setattr__(self, "kernels", k)

    @property
    def nbands(self) -> int:
        return self.kernels.shape[2]


# Frequency response of the LRI blur at the Nyquist frequency of the
# 1/ratio grid (the MTF match of the LRI sensor).
_LRI_GAIN_AT_NYQUIST = 0.3


def gaussian_blur_bank(nk: int, ratio: int, max_radius: int | None = None) -> BlurBank:
    """Isotropic Gaussian kernels whose frequency response equals 0.3 at
    the Nyquist frequency of the 1/ratio grid (``ratio`` >= 1).

    Kernels are normalized to unit sum (unit DC gain).  ``max_radius``
    truncates the support so the kernel fits small images.
    """
    f = 1.0 / (2.0 * ratio)
    sigma = np.sqrt(-np.log(_LRI_GAIN_AT_NYQUIST) / (2.0 * np.pi ** 2 * f ** 2))
    radius = max(1, int(np.ceil(4.0 * sigma)))
    if max_radius is not None:
        radius = min(radius, max(0, max_radius))
    t = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 * (t / sigma) ** 2)
    kernel = np.outer(taps, taps)
    kernel /= kernel.sum()
    return BlurBank(np.repeat(kernel[:, :, None], nk, axis=2))


@dataclass(frozen=True)
class ShiftMap:
    """Injective relocation of every input sample to a target position.

    ``target_flat[q]`` is the raveled output index receiving raveled input
    sample q; positions not hit by any sample stay zero.
    """

    input_shape: tuple[int, int, int]
    output_shape: tuple[int, int, int]
    target_flat: np.ndarray

    def __post_init__(self):
        tf = np.asarray(self.target_flat, dtype=np.int64).ravel()
        n_in = int(np.prod(self.input_shape))
        n_out = int(np.prod(self.output_shape))
        if tf.size != n_in:
            raise ValueError(f"need one target per input sample ({n_in}), got {tf.size}")
        if tf.min(initial=0) < 0 or tf.max(initial=-1) >= n_out:
            raise ValueError("shift targets out of range")
        if np.bincount(tf, minlength=n_out).max(initial=0) > 1:
            raise ValueError("shift map must be one-to-one")
        tf = tf.copy()
        tf.flags.writeable = False
        object.__setattr__(self, "input_shape", tuple(int(n) for n in self.input_shape))
        object.__setattr__(self, "output_shape", tuple(int(n) for n in self.output_shape))
        object.__setattr__(self, "target_flat", tf)


def cassi_shift_map(ni: int, nj: int, nk: int) -> ShiftMap:
    """One-pixel horizontal shear per band: sample (i, j, k) lands at
    (i, j + k, k) on an (ni, nj + nk - 1, nk) canvas (0-based indices)."""
    out_shape = (ni, nj + nk - 1, nk)
    ii, jj, kk = np.meshgrid(np.arange(ni), np.arange(nj), np.arange(nk), indexing="ij")
    flat = np.ravel_multi_index((ii, jj + kk, kk), out_shape).ravel()
    return ShiftMap((ni, nj, nk), out_shape, flat)


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def spectral_degrade(weights: SpectralWeights, shape: tuple[int, int, int]) -> LinearOp:
    """Band mixing: output channel j is the weighted combination of bands.

    The adjoint multiplies by the transposed weights; the bound is the
    exact largest singular value of the weight matrix.
    """
    ni, nj, nk = shape
    if weights.n_in != nk:
        raise ValueError(f"weights cover {weights.n_in} bands, cube has {nk}")
    W = weights.W
    bound = float(np.linalg.svd(W, compute_uv=False)[0])
    return LinearOp(
        shape, (ni, nj, weights.n_out),
        lambda x: x @ W.T,
        lambda y: y @ W,
        bound, name="spectral_degrade")


def _padded_kernel_fft(kernels: np.ndarray, ni: int, nj: int) -> np.ndarray:
    """DFT of the kernel bank zero-padded to (ni, nj), anchor at the origin."""
    kh, kw, nk = kernels.shape
    if kh > ni or kw > nj:
        raise ValueError(f"kernel extent {(kh, kw)} exceeds image {(ni, nj)}")
    padded = np.zeros((ni, nj, nk))
    padded[:kh, :kw, :] = kernels
    padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return np.fft.fft2(padded, axes=(0, 1))


def spatial_convolve(bank: BlurBank, shape: tuple[int, int, int]) -> LinearOp:
    """Per-band circular convolution by the bank's kernels.

    The adjoint is the circular correlation by the same kernels; the bound
    is the exact circulant spectral norm (max DFT magnitude over bands).
    """
    ni, nj, nk = shape
    if bank.nbands != nk:
        raise ValueError(f"bank holds {bank.nbands} kernels, cube has {nk} bands")
    return _circular_convolve(_padded_kernel_fft(bank.kernels, ni, nj), shape)


def _circular_convolve(K: np.ndarray, shape, name: str = "spatial_convolve") -> LinearOp:
    """Per-band circular convolution by the kernel spectra ``K`` of a real
    kernel (Hermitian over the full (ni, nj) DFT grid).

    Real FFTs on the half spectrum K[:, :nj//2+1] and its conjugate, both
    cached here; the bound reads the full ``K``.
    """
    bound = float(np.max(np.abs(K)))
    grid = tuple(shape[:2])
    half = np.ascontiguousarray(K[:, :grid[1] // 2 + 1])
    half_conj = np.conj(half)

    # The spectrum is this call's own buffer: multiply it in place and let
    # the inverse transform overwrite it.
    def filtered(x, transfer):
        spec = scipy.fft.rfft2(x, axes=(0, 1))
        spec *= transfer
        return scipy.fft.irfft2(spec, s=grid, axes=(0, 1), overwrite_x=True)

    return LinearOp(shape, shape, lambda x: filtered(x, half), lambda y: filtered(y, half_conj),
                    bound, name=name)


class ConvNormBound(NamedTuple):
    """Exact circulant norm next to the uncertified coefficient-l2 value."""

    exact: float
    coefficient_l2: float


def conv_norm_bound(bank: BlurBank, image_shape: tuple[int, int]) -> ConvNormBound:
    """Norm of a band-wise circular convolution at the given image size.

    ``exact`` is the certified value (max DFT magnitude of the padded
    kernels); ``coefficient_l2`` is the root sum of squares of the
    coefficients, which underestimates the DC gain of nonnegative kernels
    and is reported for comparison only.
    """
    ni, nj = image_shape
    K = _padded_kernel_fft(bank.kernels, ni, nj)
    exact = float(np.max(np.abs(K)))
    coeff = float(np.max(np.sqrt(np.sum(bank.kernels ** 2, axis=(0, 1)))))
    return ConvNormBound(exact, coeff)


def decimate(shape: tuple[int, int, int], ratio: int) -> LinearOp:
    """Keep every ratio-th sample in both spatial directions (phase 0).

    The adjoint scatters the kept samples back with zeros elsewhere; as a
    selection operator the norm is exactly 1.
    """
    out_shape = _decimated_shape(shape, ratio)

    def forward(x):
        return x[::ratio, ::ratio, :].copy()

    def adjoint(y):
        x = np.zeros(shape)
        x[::ratio, ::ratio, :] = y
        return x

    return LinearOp(shape, out_shape, forward, adjoint, 1.0, name=f"decimate({ratio})")


def _decimated_shape(shape: tuple[int, int, int], ratio: int) -> tuple[int, int, int]:
    ni, nj, nk = shape
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    if ni % ratio or nj % ratio:
        raise ValueError(f"ratio {ratio} does not divide image dims {(ni, nj)}")
    return (ni // ratio, nj // ratio, nk)


def mask_apply(mask: Mask) -> LinearOp:
    """Element-wise product by the mask, band by band (self-adjoint).

    The bound is the largest mask value (1 for non-degenerate binary masks).
    """
    h = mask.values
    bound = float(h.max(initial=0.0))
    return LinearOp(h.shape, h.shape, lambda x: x * h, lambda y: y * h,
                    bound, name="mask_apply")


def shift_apply(shift: ShiftMap) -> LinearOp:
    """Relocate samples along an injective map (norm exactly 1).

    The adjoint moves every sample back to its source position.
    """
    tf = shift.target_flat
    in_shape, out_shape = shift.input_shape, shift.output_shape
    n_out = int(np.prod(out_shape))

    def forward(x):
        out = np.zeros(n_out)
        out[tf] = x.ravel()
        return out.reshape(out_shape)

    def adjoint(y):
        return y.reshape(-1)[tf].reshape(in_shape)

    return LinearOp(in_shape, out_shape, forward, adjoint, 1.0, name="shift_apply")


def sum_channels(shape: tuple[int, int, int]) -> LinearOp:
    """Pixel-wise sum over bands onto a single focal plane.

    The adjoint replicates the flat image into every band; the bound is
    sqrt(nk) (triangle inequality per pixel, attained by equal bands).
    """
    ni, nj, nk = shape
    return LinearOp(
        shape, (ni, nj),
        lambda x: x.sum(axis=2),
        lambda y: np.repeat(y[:, :, None], nk, axis=2),
        float(np.sqrt(nk)), name="sum_channels")


def mosaic(mask: Mask, shift: ShiftMap | None = None) -> LinearOp:
    """Masking, optional shifting, then channel summation, as one block.

    It holds no shifted canvas.  Unshifted, the forward is one contraction
    over the bands; shifted, one weighted ``np.bincount`` of h*x onto each
    sample's target pixel, ``target_flat // nk_out``.  The adjoint
    replicates (gathers) the image and masks that copy in place.

    The bound is the exact norm: the shift is injective, so distinct
    focal-plane cells consume disjoint samples and the Gramian is diagonal
    with entries equal to the mask energy deposited on each cell.
    """
    h = mask.values
    ni, nj, nk = h.shape
    pixel, energy = None, h * h
    if shift is not None:
        if shift.input_shape != mask.shape:
            raise ValueError(f"shift consumes {shift.input_shape}, mask produces {mask.shape}")
        ni, nj, nk_out = shift.output_shape
        pixel = shift.target_flat // nk_out
        energy = shift_apply(shift).apply(energy)  # each cell summed in its bands' order

    def forward(x):
        return (np.einsum("ijk,ijk->ij", x, h) if pixel is None
                else np.bincount(pixel, (h * x).ravel(), ni * nj).reshape(ni, nj))

    def adjoint(y):
        out = (np.repeat(y[:, :, None], nk, axis=2) if pixel is None
               else y.reshape(-1)[pixel].reshape(h.shape))
        out *= h
        return out

    # diag(AA*) is the mosaic of the mask itself; the bound is the least
    # double whose square is at least its largest entry (a root rounded to
    # nearest may fall half an ulp below the norm)
    top = float(np.sum(energy, axis=2).max(initial=0.0))
    bound = float(np.sqrt(top))
    if Fraction(bound) ** 2 < Fraction(top):
        bound = float(np.nextafter(bound, np.inf))
    return LinearOp(h.shape, (ni, nj), forward, adjoint, bound, name="mosaic")


def _butterworth_transfer(ni: int, nj: int, rho_b: float) -> np.ndarray:
    """First-order Butterworth magnitude on the (ni, nj) DFT grid."""
    _check_butterworth(rho_b)
    f = np.hypot(np.fft.fftfreq(ni)[:, None], np.fft.fftfreq(nj)[None, :])
    return 1.0 / np.sqrt(1.0 + (f * rho_b) ** 2)


def _check_butterworth(rho_b: float) -> None:
    if not 0 < rho_b < np.inf:
        raise ValueError(f"blur diameter must be positive and finite, got rho_b={rho_b}")


def butterworth_blur(shape, rho_b: float) -> LinearOp:
    """Zero-phase first-order low-pass with magnitude 1/sqrt(1 + (f/fc)^2).

    ``rho_b`` is the blur diameter in pixels; the bilateral cutoff sits at
    fc = 1/rho_b cycles/px on the radial frequency axis.  Real even
    transfer, hence self-adjoint; the bound is the max transfer magnitude
    (1, at DC).  Works on flat images (2-D) and band-wise on cubes (3-D).
    """
    transfer = _butterworth_transfer(shape[0], shape[1], rho_b)
    if len(shape) == 3:
        transfer = transfer[:, :, None]
    return _circular_convolve(transfer, shape, name=f"butterworth({rho_b:g})")


# ---------------------------------------------------------------------------
# Exact norms of periodic formations
# ---------------------------------------------------------------------------

# Largest batch of alias-domain Gram entries held at once (complex, 1 MB).
_ALIAS_CHUNK = 1 << 16
# Headroom of a Gram bound taken from eigenvalues over their largest value,
# so that the Cholesky certificate of later batches tolerates the rounding.
_GRAM_HEADROOM = 1e-10
# Relative margin on the alias-domain norms: covers the rounding of the
# Gram matrices and of their eigenvalues (about 1e-15 relative).
_NORM_MARGIN = 1e-9


class DiagonalGram:
    """AA* = diag(e) of an operator ``op`` whose Gram is diagonal: on cfa
    and cassi, e is the mask energy each focal-plane cell collects.  ``e``
    must be finite, non-negative and of ``op``'s output shape.  ``step`` is
    the solver's tau * lambda_bar * |A|^2 on a diagonal (``BENCH_23.json``)."""

    step = 0.1

    def __init__(self, op: LinearOp, e: np.ndarray):
        e = np.asarray(e, dtype=np.float64)
        where = f"gram of shape {e.shape} (operator output {op.output_shape})"
        if e.shape != op.output_shape:
            raise ValueError(f"{where}: the shapes differ")
        if not np.all(np.isfinite(e)):
            raise ValueError(f"{where} holds {np.count_nonzero(~np.isfinite(e))} "
                             "non-finite samples")
        if np.any(e < 0):
            raise ValueError(f"{where} holds {np.count_nonzero(e < 0)} negative samples")
        self.op, self.diagonal, self.shape = op, e, e.shape

    def data_step(self, tau: float, y: np.ndarray):
        """``step(x)``, which overwrites a cube x with x - A*(I/tau + AA*)^-1
        (A(x) - y) as written: ``op``, a division by 1/tau + e, its adjoint."""
        if np.shape(y) != self.shape:
            raise ValueError(f"observation of shape {np.shape(y)} does not match the "
                             f"Gram's {self.shape}")
        A, den = self.op, self.diagonal + 1.0 / tau  # (1 + tau e) / tau
        r = np.empty(A.output_shape)
        v = None

        def step(x):
            nonlocal v
            np.subtract(A.apply(x), y, out=r)
            np.divide(r, den, out=r)  # (I/tau + AA*)^-1 (A(x) - y)
            v = A.adjoint_apply(r)  # lives on until the next A* result replaces it
            x -= v
            return x

        return step


class _AliasBlocks(NamedTuple):
    """A periodic formation's alias-domain blocks (see :class:`AliasGram`),
    as functions of its spectra at the aliases of n coarse frequencies:
    for each (ni, nj[, nk]) spectrum of the device (kernel spectra,
    transfer), its values at those aliases, shape (n, P[, nk]).

    ``make_grams()`` returns ``grams(*spectra)``, which returns G(w) =
    A(w) A(w)^H, shape (n, m, m); the constants it holds, up to nk*P^3
    entries, live only as long as it does (at 64x64x4 they would outweigh
    the spectra).  ``maps(*spectra)`` returns ``(forward, conj_adjoint)``.
    ``forward(x)`` is A(w) x(w) for the cube's coefficients x, shape
    (n, P, nk) with alias a and band k at [w, a, k], and may overwrite x.
    ``conj_adjoint(v)`` is conj(A(w)^H v(w)), shape (n, P, nk), for v of
    shape (n, m), and may overwrite v: conjugated, A(w)^H multiplies by
    the kernel spectra themselves, so neither map holds their conjugate.
    """

    make_grams: Callable
    maps: Callable


class AliasGram:
    """AA* of a formation that commutes with shifts by ``period``, in the
    alias domain, where the formation splits into one small matrix per
    coarse frequency: its certified norm (:meth:`norm`) and the exact prox
    of its data term (:meth:`data_step`).

    Let (mi, mj) = (ni/pi, nj/pj).  At each coarse frequency w on the
    (mi, mj) grid, a field is represented by its P = pi*pj aliases, the
    fine frequencies w + (mi*ai, mj*aj), alias a = ai*pj + aj, and the
    formation by one small matrix A(w) (unitary DFT on every field).
    Circular convolutions and the Butterworth filter are diagonal there.
    Band mixing and channel sums act on the band index only.  A P-periodic
    mask is the circulant of its tile's DFT divided by P.  Decimation by
    the period sums the aliases, each weighted 1/sqrt(P).

    The observation is a plane on the (ni, nj) grid, followed by
    ``coarse_bands`` bands on the (mi, mj) grid: mrca has none, multires
    its LRI cube.  Under the unitary DFT of each grid, coordinate a of the
    block at w is the plane's alias a and coordinate P + k band k's
    coefficient at w; the cube's coordinate (a, k) is band k's alias a.
    A maps each block onto itself by A(w), and AA* by G(w) = A(w) A(w)^H.
    A real operator has A(-w) = conj(A(w)) up to an alias permutation, so
    only the classes wj <= mj/2 are held, row by row from w = 0.

    Formed once per model, with it, it holds everything about the alias
    domain that neither tau nor an observation changes: the device's
    ``spectra`` at the aliases of those classes, the block maps A(w) and
    conj(A(w)^H) over all of them and the index maps between the half
    spectra of real fields (``rfft2``, columns up to nj/2) and the blocks'
    coefficients, in the unitary DFT.  An alias beyond nj/2 reads the
    conjugate of its mirror -f (``gather``), and a half-spectrum cell
    whose class lies beyond mj/2 the conjugate of the class output at -f
    (``scatter``).  The conjugations are signs on the imaginary parts,
    which cost less than masked conjugates and give the same bits.  The
    gather's depend on the class only through wj, the scatter's on the
    column; the cube's are repeated over the bands, so that one contiguous
    product applies them.  mrca's operator applies A and A* from it too.

    ``step`` is the device's tau * lambda_bar * |A|^2 for the solver's
    primal-data update, from the probe of ``BENCH_24.json``; ``shape`` is
    the observation's.  The Grams G(w) and their inverses depend on tau:
    :meth:`data_step` forms them when a solve asks for it, so a model
    whose solve takes no Gram never holds them.

    The maps and the Grams read the same matrices, their columns the
    cube's coefficients alias-major, (a, k).  mrca's Gram algebra stays
    hand-derived: rows of A(w) from the maps, multiplied out as A(w)
    A(w)^H, took two to three times as long and slowed the 64x64x4 solves.
    """

    def __init__(self, image_shape: tuple[int, int], period: tuple[int, int],
                 blocks: _AliasBlocks, spectra: tuple, step: float, coarse_bands: int = 0):
        ni, nj = image_shape
        pi, pj = period
        mi, mj = ni // pi, nj // pj
        mh, nh, p = mj // 2 + 1, nj // 2 + 1, pi * pj
        self.image_shape, self.period, self.coarse_bands = (ni, nj), (pi, pj), coarse_bands
        self.classes, self.block_size = mi * mh, p + coarse_bands  # n and m
        self.step = step
        self.shape = (ni * nj + mi * mj * coarse_bands,) if coarse_bands else (ni, nj)
        # the fine frequencies of each class's aliases, (n, P) each
        wi, wj = np.indices((mi, mh)).reshape(2, -1, 1)
        ai, aj = np.divmod(np.arange(p), pj)
        fi, fj = wi + mi * ai, wj + mj * aj
        self.spectra = tuple(a[fi, fj] for a in spectra)
        nk = self.spectra[0].shape[2]
        self.cube_shape = (ni, nj, nk)
        self.make_grams = blocks.make_grams
        self.forward, self.conj_adjoint = blocks.maps(*self.spectra)
        # the half-spectrum cell of each class's aliases, conjugated where mirrored
        mirror = fj > nj // 2
        self.gather = np.where(mirror, (-fi % ni) * nh + (-fj % nj), fi * nh + fj).astype(
            np.int32)
        self.mirror_sign = np.where(mirror[:mh], -1.0, 1.0)
        self.mirror_sign_cube = np.repeat(self.mirror_sign[:, :, None], nk, axis=2)
        # the class output each half-spectrum cell reads, and whether it
        # reads it as is or, from its mirror, conjugated: conj_adjoint's
        # outputs are conjugates, the forward map's are not
        gi, gj = np.indices((ni, nh))
        flip = gj % mj >= mh
        gi, gj = np.where(flip, -gi % ni, gi), np.where(flip, -gj % nj, gj)
        self.scatter = (((gi % mi) * mh + gj % mj) * p + (gi // mi) * pj + gj // mj).astype(
            np.int32).ravel()
        self.flip_sign = np.where(flip[0], -1.0, 1.0)
        self.keep_sign_cube = np.repeat(-self.flip_sign[:, None], nk, axis=1)

    def norm(self) -> float:
        """The formation's exact norm sqrt(max_w lambda_max(G(w))), with a
        relative margin of 1e-9.

        The classes are visited in order, w = 0 alone first (its
        eigenvalue often certifies all others), then in batches of at most
        1 MB of Gram entries.  A batch whose Grams all pass a Cholesky
        certificate of t*I - G, against the largest eigenvalue t found so
        far, costs no eigenvalue computation.
        """
        grams = self.make_grams()
        top = 0.0
        lo, hi = 0, 1
        while lo < self.classes:
            gram = grams(*(a[lo:hi] for a in self.spectra))
            try:
                np.linalg.cholesky(top * np.eye(gram.shape[1]) - gram)
            except np.linalg.LinAlgError:
                top = max(top, float(np.linalg.eigvalsh(gram)[:, -1].max()) * (1 + _GRAM_HEADROOM))
            lo, hi = hi, hi + max(1, _ALIAS_CHUNK // gram[0].size)
        return float(np.sqrt(top)) * (1 + _NORM_MARGIN)

    def cube_coefficients(self, x: np.ndarray):
        """``(spec, coef)``: the half spectrum of a cube x, a fresh array of
        shape (ni, nh, nk), and its coefficients at every class, (n, P, nk)."""
        spec = scipy.fft.rfft2(np.ascontiguousarray(x), axes=(0, 1), norm="ortho")
        coef = np.take(spec.reshape(-1, spec.shape[2]), self.gather, axis=0)
        coef.reshape(-1, *self.mirror_sign_cube.shape).imag *= self.mirror_sign_cube
        return spec, coef

    def plane_coefficients(self, y: np.ndarray) -> np.ndarray:
        """The coefficients at every class, (n, P), of an (ni, nj) plane."""
        coef = np.take(scipy.fft.rfft2(y, norm="ortho"), self.gather)
        coef.reshape(-1, *self.mirror_sign.shape).imag *= self.mirror_sign
        return coef

    def plane_spectrum(self, u: np.ndarray) -> np.ndarray:
        """The half spectrum, (ni, nh), of the plane whose coefficients at
        every class are u, (n, P)."""
        ni, nj = self.image_shape
        half = np.take(u, self.scatter).reshape(ni, nj // 2 + 1)
        half.imag *= self.flip_sign
        return half

    def cube_spectrum(self, d: np.ndarray) -> np.ndarray:
        """The half spectrum, (ni, nh, nk), of the cube whose coefficients at
        every class are the conjugates d, (n, P, nk)."""
        half = np.take(d.reshape(-1, d.shape[2]), self.scatter, axis=0).reshape(
            self.image_shape[0], *self.keep_sign_cube.shape)
        half.imag *= self.keep_sign_cube
        return half

    def transform_back(self, half: np.ndarray) -> np.ndarray:
        """The real field, (ni, nj[, nk]), of a half spectrum (ni, nh[, nk]),
        which it may overwrite."""
        return scipy.fft.irfft2(half, s=self.image_shape, axes=(0, 1), norm="ortho",
                                overwrite_x=True)

    def data_step(self, tau: float, y: np.ndarray):
        """``step(x)``, which overwrites a cube-shaped float64 array x, in
        any memory layout, with x - A*(I/tau + AA*)^-1 (A(x) - y): the
        exact prox of tau/2 ||A(.) - y||^2, (I + tau A*A)^-1 (x + tau A*(y)),
        by the Woodbury identity.

        Block by block that is x(w) - A(w)^H (I/tau + G(w))^-1 (A(w) x(w) -
        y(w)).  Once per call of this method it inverts I/tau + G(w) at the
        coarse frequencies wj <= mj/2 only, in batches of at most ni*nj
        Gram entries (and 1 MB), so that forming them holds less than the
        blocks themselves, and takes y's coefficients; everything else is
        formed with the Gram.  x and y are real, so their half spectra hold
        every coefficient.  One step runs one band-wise ``rfft2`` of x, the
        gather, A(w), one batched m x m product, conj(A(w)^H), the scatter
        and one ``irfft2``.
        """
        if np.shape(y) != self.shape:
            raise ValueError(f"observation of shape {np.shape(y)} does not match the "
                             f"Gram's {self.shape}")
        (ni, nj), nc = self.image_shape, self.coarse_bands
        n, m = self.classes, self.block_size
        p = m - nc
        inv = np.empty((n, m, m), dtype=complex)
        batch = max(1, min(_ALIAS_CHUNK, ni * nj) // (m * m))
        grams = self.make_grams()
        for lo in range(0, n, batch):
            g = grams(*(a[lo:lo + batch] for a in self.spectra))
            g[:, np.arange(m), np.arange(m)] += 1.0 / tau
            inv[lo:lo + batch] = np.linalg.inv(g)
        flat = np.asarray(y, dtype=np.float64).reshape(-1)
        coeffs = np.empty((n, m), dtype=complex)
        coeffs[:, :p] = self.plane_coefficients(flat[:ni * nj].reshape(ni, nj))
        if nc:
            mi, mj = ni // self.period[0], nj // self.period[1]
            coeffs[:, p:] = scipy.fft.rfft2(flat[ni * nj:].reshape(mi, mj, nc), axes=(0, 1),
                                            norm="ortho").reshape(n, nc)
        forward, conj_adjoint = self.forward, self.conj_adjoint

        def step(x):
            spec, coef = self.cube_coefficients(x)
            u = forward(coef)
            del coef  # each cube-sized temporary is freed before the next one is formed
            u -= coeffs
            v = np.matmul(inv, u[:, :, None])[:, :, 0]
            del u
            update = self.cube_spectrum(conj_adjoint(v))
            spec -= update
            del update
            x[...] = self.transform_back(spec)
            return x

        return step


def _alias_op(gram: AliasGram, bound: float) -> LinearOp:
    """mrca's cube-to-plane formation A of ``gram`` applied in the alias
    domain.  A runs one band-wise ``rfft2``, the gather, A(w), the scatter
    and one plane ``irfft2``; A* one plane ``rfft2``, the gather,
    conj(A(w)^H), the scatter and one band-wise ``irfft2``.  A PAN blur is
    a transfer inside the blocks and costs no transform of its own."""
    def forward(x):
        coef = gram.cube_coefficients(x)[1]  # the cube's spectrum is freed here
        return gram.transform_back(gram.plane_spectrum(gram.forward(coef)))

    def adjoint(y):
        d = gram.conj_adjoint(gram.plane_coefficients(y))
        half = gram.cube_spectrum(d)
        del d
        return gram.transform_back(half)

    return LinearOp(gram.cube_shape, gram.image_shape, forward, adjoint, bound, name="mrca")


def _mask_circulants(mask: Mask, period: tuple[int, int]) -> np.ndarray:
    """Alias-domain matrices of a periodic mask, one per band, interleaved
    as a cube's coefficients lie: shape (P, P*nb) with P = pi*pj, column
    a'*nb + b holding at row a the DFT of band b's tile at a - a', over P."""
    pi, pj = period
    c = np.fft.fft2(mask.values[:pi, :pj, :], axes=(0, 1)) / (pi * pj)
    ai, aj = np.divmod(np.arange(pi * pj), pj)
    return c[(ai[:, None] - ai) % pi, (aj[:, None] - aj) % pj].reshape(pi * pj, -1)


def _mrca_blocks(period, h_lri: Mask, h_pan: Mask, weights: SpectralWeights) -> _AliasBlocks:
    """The alias-domain blocks of mosaic(h_lri) conv(K) + T mosaic(h_pan) W,
    of the spectra (s, t): the kernel spectra K and the PAN transfer T at
    the aliases.

    A(w) = C diag(s) + T Q: column (a', k) of C holds band k's LRI mask
    circulant at alias a', s the kernel spectra at the aliases, T the
    transfer at the output aliases (ones without a PAN blur) and
    Q = C_pan (x) W, applied as C_pan (W .).  Its Gram matrix
    C diag(|s|^2) C^H + (C diag(s) Q^H T + h.c.) + T Q Q^H T
    is linear in |s|^2 and s, so each batch takes two matrix products.
    """
    c = _mask_circulants(h_lri, period)
    c_pan = _mask_circulants(h_pan, period)
    q = np.kron(c_pan, weights.W)
    p = c.shape[0]
    pan = q @ q.conj().T
    w = weights.W[0].astype(complex)
    # a -> (a, k) weighted by W, the PAN branch's adjoint band spread
    spread = np.kron(np.eye(p), weights.W)

    def make_grams():
        power = np.einsum("ac,bc->cab", c, c.conj()).reshape(c.shape[1], p * p)
        cross = np.einsum("ac,bc->cab", c, q.conj()).reshape(c.shape[1], p * p)

        def grams(s, t):
            s = s.reshape(len(s), -1)
            g = ((s.real ** 2 + s.imag ** 2) @ power).reshape(-1, p, p)
            x = (s @ cross).reshape(-1, p, p)
            # g + T pan T + x T + (x T)^H, each term formed in place
            tpt = t[:, :, None] * pan
            g += np.multiply(tpt, t[:, None, :], out=tpt)
            g += np.multiply(x, t[:, None, :], out=x)
            g += np.conj(x, out=x).swapaxes(1, 2)
            return g

        return grams

    def maps(s, t):
        def forward(x):  # overwrites x
            u = t * ((x.reshape(-1, len(w)) @ w).reshape(t.shape) @ c_pan.T)
            x *= s
            u += x.reshape(len(x), -1) @ c.T
            return u

        def conj_adjoint(v):  # overwrites v
            v = np.conjugate(v, out=v)
            d = v @ c
            d *= s.reshape(d.shape)
            v *= t
            d += (v @ c_pan) @ spread
            return d.reshape(s.shape)

        return forward, conj_adjoint

    return _AliasBlocks(make_grams, maps)


def _multires_blocks(nk: int, ratio: int, weights: SpectralWeights) -> _AliasBlocks:
    """The alias-domain blocks of the stack of W and decimate(ratio) conv(K),
    of the kernel spectra s at the aliases.  The rows of A(w), over the
    cube's coefficients alias-major, (a, k), are the maps' own: ``spread``
    and ``alias_sum.T`` diag(s)."""
    p = ratio * ratio
    w = weights.W[0].astype(complex)
    # the sum over the aliases of each band, (a, k) -> k, weighted 1/ratio,
    # as one product
    alias_sum = np.kron(np.ones((p, 1)), np.eye(nk)).astype(complex) / ratio
    # a -> (a, k) weighted by W, the HRI branch's adjoint band spread
    spread = np.kron(np.eye(p), weights.W)

    def grams(s):
        a = np.concatenate([np.broadcast_to(spread, (len(s), *spread.shape)),
                            alias_sum.T * s.reshape(len(s), 1, -1)], axis=1)
        return a @ a.conj().swapaxes(1, 2)

    def maps(s):
        def forward(x):  # overwrites x
            hri = (x.reshape(-1, nk) @ w).reshape(len(x), p)
            x *= s
            return np.concatenate([hri, x.reshape(len(x), -1) @ alias_sum], axis=1)

        def conj_adjoint(v):  # overwrites v
            v = np.conjugate(v, out=v)
            d = v[:, p:] @ alias_sum.T
            d *= s.reshape(d.shape)
            d += v[:, :p] @ spread
            return d.reshape(s.shape)

        return forward, conj_adjoint

    return _AliasBlocks(lambda: grams, maps)


# ``AliasGram.step`` of each device (see the ``solver`` module docstring)
_ALIAS_STEPS = {"mrca": 0.01, "multires": 0.02}


# ---------------------------------------------------------------------------
# Assembled formation presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormationPreset:
    """Serializable description of one acquisition setup.

    ``noise_sigma`` is the additive-noise standard deviation expressed as a
    fraction of the scene dynamic range; ``seed`` drives the random coded
    aperture when ``mask == "random"``.  The PAN channel count (one), the
    LRI blur gain at Nyquist (0.3) and the Butterworth order (one) are
    fixed constants, not fields; :meth:`from_text` rejects their retired
    keys ``np_bands``, ``lri_blur_gain`` and ``butter_order`` by name.
    A field the device would ignore must hold its default: ``ratio`` 2 on
    ``cfa`` and ``cassi``, ``mask`` ``bt4pan`` on ``multires``.
    """

    name: str
    ni: int
    nj: int
    nk: int
    ratio: int = 2
    mask: str = "bt4pan"
    hri_blur: str = "identity"
    rho_b: float = 1.4
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown formation preset {self.name!r}; choose from {PRESET_NAMES}")
        if min(self.ni, self.nj, self.nk) < 1:
            raise ValueError("dimensions must be positive")
        if self.ratio < 1:
            raise ValueError(f"ratio must be >= 1, got ratio={self.ratio}")
        if self.ratio != 2 and self.name not in RATIO_PRESETS:
            raise ValueError(f"ratio: the {self.name} formation has one resolution and no "
                             f"ratio, got ratio={self.ratio}")
        if self.mask != "bt4pan" and self.name == "multires":
            raise ValueError(f"mask: the multires formation has no mask, got mask={self.mask!r}")
        if self.hri_blur not in ("identity", "butterworth"):
            raise ValueError(f"unknown blur choice {self.hri_blur!r}")
        if self.hri_blur == "butterworth":
            _check_butterworth(self.rho_b)
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(
                f"noise level must be nonnegative and finite, got noise_sigma={self.noise_sigma}")

    def to_text(self) -> str:
        return format_key_values(dataclasses.asdict(self))

    @classmethod
    def from_text(cls, text: str, source: str = "preset") -> "FormationPreset":
        """Parse :meth:`to_text` output; every error names ``source``."""
        raw = parse_key_values(text, source)
        try:
            kwargs = {f.name: PARSE_CELL[f.type](raw.pop(f.name))
                      for f in dataclasses.fields(cls) if f.name in raw}
            if raw:
                raise ValueError(f"unknown preset keys: {sorted(raw)}")
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # TypeError: a required key is missing
            raise ValueError(f"{source}: {exc}") from None


_DEFAULT_MASKS = {"mrca": "bt4pan", "cfa": "quad4", "cassi": "random", "multires": "bt4pan"}


def formation_preset(name: str, ni: int, nj: int, nk: int, **overrides) -> FormationPreset:
    """Preset factory with a sensible default mask per formation kind."""
    overrides.setdefault("mask", _DEFAULT_MASKS.get(name, "bt4pan"))
    return FormationPreset(name=name, ni=ni, nj=nj, nk=nk, **overrides)


@dataclass
class FormationModel:
    """A built acquisition operator together with its mask geometry.

    ``h_lri`` is the channel mask the baseline reconstructor reads; on
    ``cfa`` and ``cassi``, ``op`` is its mosaic, shear included.
    ``lri_support`` maps the observation samples of the low-resolution
    sensor class; the others are high-resolution.  Only ``mrca`` and
    ``multires`` have two sensor classes and carry it (read only by the
    statistics equalization); on ``cfa`` and ``cassi`` it is None.

    ``gram`` is the one owner of AA* of ``op``, through whose
    ``data_step`` the solver takes the exact prox of its data term, at the
    device's step constant ``gram.step``.  On ``cfa`` and ``cassi`` it is a
    :class:`DiagonalGram`: AA* is diagonal, the mask energy each
    focal-plane cell collects, and the data step runs ``op``, one division
    and its adjoint.  On ``mrca`` and ``multires`` it is an
    :class:`AliasGram`, formed with the model: the kernel spectra (and on
    mrca the PAN transfer) at the aliases, the block maps A(w) and
    conj(A(w)^H) and the index maps, about one cube.  On ``mrca`` ``op``
    applies A and A* from it.  The data step runs whole in the alias
    domain, with no call to ``op``, and forms the Grams G(w), whose
    largest eigenvalue is the norm bound, and their inverses only when a
    solve asks for it.
    """

    preset: FormationPreset
    op: LinearOp
    h_lri: Mask | None = None
    lri_support: np.ndarray | None = None
    gram: DiagonalGram | AliasGram | None = None


def _resolve_tile(preset: FormationPreset) -> PeriodicTile | None:
    """The preset's mask tile, checked against its sizes (None for the
    random code).  An mrca tile must hold PAN cells; the random code has
    none."""
    tile = None
    if preset.mask != "random":
        if preset.mask in BUILTIN_TILES:
            tile = builtin_tile(preset.mask)
        else:
            tile = parse_mask_file(preset.mask)
        if tile.nchannels != preset.nk:
            raise ValueError(
                f"mask {preset.mask!r} carries {tile.nchannels} channels, preset wants {preset.nk}")
        if preset.ni % tile.period[0] or preset.nj % tile.period[1]:
            raise ValueError(
                f"mask {preset.mask!r} has period {tile.period}, which does not divide "
                f"the image size {(preset.ni, preset.nj)}")
    if preset.name == "mrca" and (tile is None or not np.any(tile.cells == PAN)):
        raise ValueError("the mrca preset needs a mask with PAN pixels (e.g. bt4pan)")
    return tile


def _lri_spectra(preset: FormationPreset) -> np.ndarray:
    """The kernel spectra of the per-band Gaussian blur of the LRI samples."""
    ni, nj, nk = preset.ni, preset.nj, preset.nk
    bank = gaussian_blur_bank(nk, preset.ratio, max_radius=(min(ni, nj) - 1) // 2)
    return _padded_kernel_fft(bank.kernels, ni, nj)


def _pan_transfer(preset: FormationPreset) -> np.ndarray:
    """The PAN blur's transfer on the (ni, nj) grid; without a PAN blur a
    unit transfer, exact in the norm."""
    if preset.hri_blur == "butterworth":
        return _butterworth_transfer(preset.ni, preset.nj, preset.rho_b)
    return np.ones((preset.ni, preset.nj))


def build_formation(preset: FormationPreset) -> FormationModel:
    """Assemble the forward operator for a preset.

    * ``multires``  stacked pair: spectrally averaged HRI plus the blurred
      and decimated LRI (two separate acquisitions);
    * ``cfa``       mask-and-sum mosaic of the cube;
    * ``cassi``     mask, per-band horizontal shear, then sum;
    * ``mrca``      HRI branch (spectral average -> PAN mask -> optional
      blur) and LRI branch (per-band blur -> LRI mask) summed on one
      focal plane.  No decimation anywhere: the LRI mask already
      suppresses the samples a decimation would drop.

    ``mrca`` and ``multires`` commute with shifts by the tile period resp.
    the ratio.  Each carries an :class:`AliasGram` of its blocks as
    ``gram``, formed here: the spectra at the aliases, the block maps and
    the index maps.  Its :meth:`AliasGram.norm` is the operator's exact
    norm, with a relative margin of 1e-9.  The mrca operator is not the
    composition of the blocks but applies A and A* from the Gram, each
    with one band-wise FFT and one FFT of the plane (the PAN blur is a
    transfer inside the blocks).  The multires operator stays the stack
    of its blocks.  ``cfa`` and ``cassi`` carry the exact diagonal-Gramian
    norm of :func:`mosaic`, and a :class:`DiagonalGram` of diag(AA*) as
    ``gram``.

    ``lri_support`` is the LRI block of ``multires`` and the channel pixels
    of ``mrca``; a tile with no channel cells leaves it empty.
    """
    shape = (preset.ni, preset.nj, preset.nk)
    ni, nj, nk = shape

    if preset.name == "multires":
        w, r = average_weights(nk), preset.ratio
        hri_op = spectral_degrade(w, shape)
        K = _lri_spectra(preset)
        op = stack(hri_op, compose(decimate(shape, r), _circular_convolve(K, shape)))
        gram = AliasGram((ni, nj), (r, r), _multires_blocks(nk, r, w), (K,),
                         _ALIAS_STEPS["multires"], coarse_bands=nk)
        op.norm_bound = gram.norm()
        lri_support = np.zeros(op.output_shape, dtype=bool)
        lri_support[int(np.prod(hri_op.output_shape)):] = True
        return FormationModel(preset, op, lri_support=lri_support, gram=gram)

    tile = _resolve_tile(preset)
    h_lri, h_pan = (periodic_mask(tile, ni, nj) if tile is not None
                    else (random_code_mask(ni, nj, nk, seed=preset.seed), None))

    if preset.name in ("cfa", "cassi"):
        op = mosaic(h_lri, cassi_shift_map(ni, nj, nk) if preset.name == "cassi" else None)
        return FormationModel(preset, op, h_lri=h_lri,
                              gram=DiagonalGram(op, op.apply(h_lri.values)))

    # full compressed acquisition on one focal plane, applied in the alias domain
    gram = AliasGram((ni, nj), tile.period,
                     _mrca_blocks(tile.period, h_lri, h_pan, average_weights(nk)),
                     (_lri_spectra(preset), _pan_transfer(preset)), _ALIAS_STEPS["mrca"])
    op = _alias_op(gram, gram.norm())
    return FormationModel(preset, op, h_lri=h_lri, lri_support=h_lri.pixel_support(), gram=gram)


def compression_ratio(preset: FormationPreset) -> float:
    """Observation size over cube size of ``build_formation(preset).op``,
    from the preset's sizes.

    Runs the checks of :func:`build_formation` in its order, so a preset it
    rejects is rejected here with the same error, but builds no mask,
    operator or norm.
    """
    ni, nj, nk = preset.ni, preset.nj, preset.nk
    if preset.name == "multires":
        ci, cj, _ = _decimated_shape((ni, nj, nk), preset.ratio)
        acquired = ni * nj + ci * cj * nk
    else:
        _resolve_tile(preset)
        acquired = ni * (nj + nk - 1) if preset.name == "cassi" else ni * nj
    return acquired / (ni * nj * nk)


# ---------------------------------------------------------------------------
# Observation conditioning
# ---------------------------------------------------------------------------


def add_gaussian_noise(y: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Seeded zero-mean iid Gaussian noise of standard deviation sigma."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"noise level must be nonnegative and finite, got sigma={sigma}")
    y = np.asarray(y, dtype=np.float64)
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    return y + rng.normal(0.0, sigma, y.shape)


def equalize_lri_stats(y: np.ndarray, lri_support: np.ndarray) -> np.ndarray:
    """Affinely rescale the LRI samples (``lri_support``) so their mean and
    standard deviation match the other, HRI samples (population statistics).

    A fixed point once applied; degenerate (zero-variance) LRI samples are
    rejected.
    """
    y = np.asarray(y, dtype=np.float64)
    lri_support = np.asarray(lri_support, dtype=bool)
    if lri_support.shape != y.shape:
        raise ValueError("the support must match the observation shape")
    if lri_support.all() or not lri_support.any():
        raise ValueError("both sensor classes need at least one sample")
    lri = y[lri_support]
    hri = y[~lri_support]
    s_l = lri.std()
    if s_l == 0:
        raise ValueError("LRI samples have zero variance; cannot equalize")
    out = y.copy()
    out[lri_support] = (lri - lri.mean()) * (hri.std() / s_l) + hri.mean()
    return out
