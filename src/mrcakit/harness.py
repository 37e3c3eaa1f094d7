"""End-to-end validation pipeline: reference, simulate, reconstruct, compare.

The stages are public (``load_reference``, ``simulate``,
``write_observation``/``read_observation``, ``reconstruct``, ``evaluate``);
``run_pipeline`` is their composition and ``run_sweep`` varies one axis of
it.  The method table lives here too: ``METHODS`` are the names of the
solver setups of :func:`jodefu_presets` plus ``"baseline"``.

The stages hold no state.  ``run_pipeline`` keeps a private record of the
last acquisition it made (device model, noisy observation and baseline).
Each row loads its reference and reuses the record when the device, the
seed and the loaded samples match, so consecutive rows on one device
build, simulate and interpolate once.  It holds one acquisition, and
outputs stay bitwise those of a fresh run.

Synthetic scenes stand in for license-gated satellite bundles: piecewise
constant patches (gradient-friendly), a smooth ramp and one-pixel lines
(gradient-adversarial), all deterministic from a seed.  The baseline
reconstructor is a deliberately simple floor: per-channel normalized
low-pass interpolation of the mosaic samples, or plain bicubic upsampling
for stacked multiresolution bundles.  It is also where every jodefu solve
starts: from it, every jodefu row of the desk experiment clears the floor
by at least 1 dB within the default cap of 250 iterations (the desk's scene
and scene seeds 1-5); from A*(y), cassi jodefu-v1 ends only 0.4 dB above
it on the desk's scene.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .datacube import DataCube, read_datacube, write_datacube
from .formation import (
    PAN_BLUR_PRESETS,
    FormationModel,
    FormationPreset,
    _check_seed,
    add_gaussian_noise,
    build_formation,
    equalize_lri_stats,
    mosaic,
)
from .masks import BUILTIN_TILES
from .metrics import (QualityReport, check_report_shape, compression_ratio, psnr, sam, ssim,
                      write_report)
from .regularizers import NORM_KINDS, metric_norm, tv_op
from .solver import SolverConfig, jodefu_solve

__all__ = [
    "ReconstructionPreset",
    "jodefu_presets",
    "SceneParams",
    "flat_patch_region",
    "synth_scene",
    "baseline_reconstruct",
    "PipelineSpec",
    "PipelineResult",
    "load_reference",
    "simulate",
    "read_preset",
    "write_observation",
    "read_observation",
    "reconstruct",
    "evaluate",
    "run_pipeline",
    "run_sweep",
]


@dataclass(frozen=True)
class ReconstructionPreset:
    """Named solver setup: metric norm and the blur on the PAN samples of
    the device the method models (on a formation that applies one)."""

    norm_kind: str
    hri_blur: str
    rho_b: float


_PRESETS = {
    "jodefu-v1": ReconstructionPreset("l221", "identity", 0.0),
    "jodefu-v2": ReconstructionPreset("s1l1", "butterworth", 1.4),
}

METHODS = (*_PRESETS, "baseline")


def jodefu_presets(name: str) -> ReconstructionPreset:
    """The two solver setups of :data:`METHODS`: ``jodefu-v1`` is the fast
    default (classic gradient, l221 coupling, no blur); ``jodefu-v2``
    trades time for quality (nuclear-norm coupling and a 1.4 px blur on
    the PAN samples, where the formation applies one)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown solver preset {name!r}; choose from {tuple(_PRESETS)}")


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneParams:
    ni: int
    nj: int
    nk: int


def flat_patch_region(ni: int, nj: int) -> tuple[slice, slice]:
    """Slices of the guaranteed piecewise-constant patch of a synthetic
    scene (its interior has zero spatial gradient in every band)."""
    return (slice(ni // 8, ni // 8 + max(2, ni // 4)),
            slice(nj // 8, nj // 8 + max(2, nj // 4)))


def synth_scene(params: SceneParams, seed: int = 0) -> DataCube:
    """Deterministic test scene.

    Six random constant-spectrum rectangles cover the frame, one fixed
    rectangle (see :func:`flat_patch_region`) is painted last so its
    interior is guaranteed flat, a linear ramp occupies the right half and
    three thin lines cross the right/bottom halves only.  Values stay within
    [0, 1], the dynamic range of the cube.
    """
    ni, nj, nk = params.ni, params.nj, params.nk
    if min(ni, nj, nk) < 1:
        raise ValueError("scene dimensions must be positive")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    scene = np.tile(rng.uniform(0.25, 0.7, nk), (ni, nj, 1))

    for _ in range(6):
        h = int(rng.integers(max(2, ni // 8), max(3, ni // 2)))
        w = int(rng.integers(max(2, nj // 8), max(3, nj // 2)))
        r = int(rng.integers(0, max(1, ni - h)))
        c = int(rng.integers(0, max(1, nj - w)))
        scene[r:r + h, c:c + w, :] = rng.uniform(0.1, 0.9, nk)

    scene[flat_patch_region(ni, nj)] = rng.uniform(0.15, 0.85, nk)

    # smooth ramp over the right half, away from the guaranteed flat patch
    half = nj // 2
    ramp = np.linspace(-0.1, 0.1, nj - half)
    scene[:, half:, :] = np.clip(scene[:, half:, :] + ramp[None, :, None], 0, 1)

    for _ in range(3):
        spectrum = rng.uniform(0.05, 0.95, nk)
        if rng.random() < 0.5:
            scene[:, int(rng.integers(half, nj)), :] = spectrum
        else:
            scene[int(rng.integers(ni // 2, ni)), :, :] = spectrum

    return DataCube(np.clip(scene, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Baseline reconstruction
# ---------------------------------------------------------------------------


def _bicubic_upsample(band: np.ndarray, ratio: int, out_shape: tuple[int, int]) -> np.ndarray:
    rows = np.arange(out_shape[0]) / ratio
    cols = np.arange(out_shape[1]) / ratio
    grid = np.meshgrid(rows, cols, indexing="ij")
    return map_coordinates(band, grid, order=3, mode="nearest")


def baseline_reconstruct(y: np.ndarray, model: FormationModel) -> np.ndarray:
    """Simple non-iterative recovery used as a quality floor.

    Mask-based formations: each focal-plane cell is spread back over the
    samples it collects (undoing the shear when present), in proportion to
    their mask weights and divided by the mask energy the cell collects,
    i.e. the minimum-norm solution A*(AA*)^+ y of the mosaic A of the
    channel mask, whose Gramian is diagonal.  On cfa and cassi A is the
    device operator itself; on mrca it leaves out the PAN branch, whose
    cells collect no channel energy.  A cell that collects one band gives
    that band's value back exactly.  The gaps are then filled by
    normalized low-pass interpolation, i.e. the Gaussian smoothing of the
    samples divided by the smoothing of the mask; known samples are kept.
    Stacked multiresolution bundles: bicubic upsampling of the LRI plus a
    mean offset aligning it with the HRI.
    """
    y = np.asarray(y, dtype=np.float64)
    ni, nj, nk = model.op.input_shape

    if model.preset.name == "multires":
        parts = model.op.parts
        p, m = parts.split(y)
        up = np.stack(
            [_bicubic_upsample(m[:, :, k], model.preset.ratio, (ni, nj)) for k in range(nk)],
            axis=2)
        return up + (p.mean() - up.mean())

    if model.h_lri is None:
        raise ValueError("baseline needs the formation masks")
    h = model.h_lri.values
    M = mosaic(model.h_lri) if model.preset.name == "mrca" else model.op
    energy = M.apply(h)  # diag(MM*): the mask energy each cell collects
    back = M.adjoint_apply(np.divide(y, energy, out=np.zeros_like(y), where=energy > 0))

    out = np.empty((ni, nj, nk))
    for k in range(nk):
        hk = h[:, :, k]
        n_k = float(np.count_nonzero(hk))
        if n_k == 0:
            raise ValueError(f"channel {k} has empty support; cannot reconstruct")
        sigma = max(1.0, 0.75 * np.sqrt(ni * nj / n_k))
        samples = back[:, :, k]
        num = gaussian_filter(samples, sigma, mode="wrap")
        den = gaussian_filter((hk > 0).astype(np.float64), sigma, mode="wrap")
        interp = num / np.maximum(den, 1e-12)
        out[:, :, k] = np.where(hk > 0, samples, interp)
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Fully seeded description of one reference/simulate/reconstruct/
    compare run.

    ``dataset`` is either ``"synthetic"`` (a scene in [0, 1]) or the stem of
    a datacube file, which keeps its own range; solver fields override the
    reconstruction preset defaults.  Scene and noise derive from ``seed``.

    The simulated device is ``formation`` with its own PAN blur, or the
    blur the method models if it has none and is in ``PAN_BLUR_PRESETS``
    (jodefu-v2's 1.4 px Butterworth blur).  Reconstructions use its model.

    ``equalize`` applies the LRI/HRI statistics equalization before
    reconstructing.  It compensates radiometric mismatch between real
    instruments and is off by default: simulated observations are
    radiometrically consistent by construction, so equalizing them only
    injects bias.
    """

    formation: FormationPreset
    method: str = "jodefu-v1"
    lambda_bar: float = 1e-3
    iters: int = 250
    norm_kind: str | None = None
    equalize: bool = False
    dataset: str = "synthetic"
    seed: int = 0
    out_dir: str | None = None
    report_format: str = "csv"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.iters < 1:
            raise ValueError("need at least one iteration")
        if not 0 < self.lambda_bar < np.inf:
            raise ValueError(f"lambda_bar must be positive and finite, got {self.lambda_bar}")
        _check_seed(self.seed)
        if self.norm_kind is not None and self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}; choose from {NORM_KINDS}")
        if self.report_format not in ("csv", "json"):
            raise ValueError(f"unknown report_format {self.report_format!r}; choose csv or json")


@dataclass
class PipelineResult:
    report: QualityReport
    reference: DataCube
    observation: np.ndarray
    estimate: DataCube


def _derived_seeds(seed: int) -> tuple[int, int]:
    _check_seed(seed)
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


def load_reference(preset: FormationPreset, dataset: str = "synthetic",
                   seed: int = 0) -> tuple[DataCube, FormationPreset, str]:
    """Reference stage: the synthetic scene of ``seed`` (dataset
    ``"synthetic"``, dynamic range 1) or the datacube stored at the stem
    ``dataset``, which keeps its own.  Returns the cube, the preset resized
    to it and the dataset label of the report."""
    scene_seed, _ = _derived_seeds(seed)  # a stored cube takes no seed, but a bad one still fails
    if dataset == "synthetic":
        cube = synth_scene(SceneParams(preset.ni, preset.nj, preset.nk), seed=scene_seed)
        return cube, preset, f"synthetic:{seed}"
    cube = read_datacube(dataset)
    preset = dataclasses.replace(preset, ni=cube.ni, nj=cube.nj, nk=cube.nk)
    return cube, preset, os.path.basename(dataset)


def _effective_preset(spec: PipelineSpec, preset: FormationPreset) -> FormationPreset:
    """The device: ``preset`` with its own PAN blur or, if it has none on a formation
    that applies one, the jodefu method's.  The blur belongs to the image formation
    (it spreads suppressed pixels), so simulation and model share it."""
    rp = _PRESETS.get(spec.method) if preset.name in PAN_BLUR_PRESETS else None
    if rp and rp.hri_blur == "butterworth" and preset.hri_blur == "identity":
        return dataclasses.replace(preset, hri_blur="butterworth", rho_b=rp.rho_b)
    return preset


def simulate(device: FormationPreset, reference: DataCube,
             seed: int = 0) -> tuple[FormationModel, np.ndarray]:
    """Simulate stage: build the device, acquire the reference and add the
    noise draw of ``seed`` (sigma = ``noise_sigma`` times the dynamic
    range).  Returns the model and the raw observation.

    Seed rule: ``SeedSequence(seed)`` yields the scene seed (used by
    :func:`load_reference`) and the noise seed, so equal seeds give
    bitwise equal observations on every entry point."""
    _, noise_seed = _derived_seeds(seed)
    model = build_formation(device)
    y = model.op.apply(reference.values)
    y = add_gaussian_noise(y, device.noise_sigma * reference.rho, seed=noise_seed)
    return model, y


def read_preset(path: str) -> FormationPreset:
    with open(path, "r", encoding="ascii") as fh:
        return FormationPreset.from_text(fh.read(), path)


def _observation_blocks(stem: str, model: FormationModel) -> list[tuple[str, tuple]]:
    """The datacube stem and cube shape of each block of an observation."""
    if model.op.parts is None:
        return [(stem, (*model.op.output_shape, 1))]
    return list(zip((stem + "_hri", stem + "_lri"), model.op.parts.shapes))


def write_observation(stem: str, model: FormationModel, y: np.ndarray, rho: float) -> None:
    """Write an observation as datacubes (``<stem>``, or ``<stem>_hri`` and
    ``<stem>_lri`` for a stacked pair; float32 samples) plus the device it
    came from as ``<stem>.preset``."""
    blocks = model.op.parts.split(y) if model.op.parts is not None else [y]
    for (name, shape), block in zip(_observation_blocks(stem, model), blocks):
        write_datacube(name, DataCube(block.reshape(shape), rho=rho))
    with open(stem + ".preset", "w", encoding="ascii") as fh:
        fh.write(model.preset.to_text())


def read_observation(stem: str, preset_path: str | None = None
                     ) -> tuple[FormationModel, np.ndarray, float]:
    """Read what :func:`write_observation` wrote: the device model (from
    ``preset_path``, default ``<stem>.preset``), the observation and its
    dynamic range.  Each block must have the shape the device produces."""
    preset_path = preset_path or stem + ".preset"
    model = build_formation(read_preset(preset_path))
    cubes = []
    for name, shape in _observation_blocks(stem, model):
        cubes.append(read_datacube(name))
        if cubes[-1].shape != shape:
            raise ValueError(f"{name}: shape {cubes[-1].shape}, preset {preset_path} wants {shape}")
    y = np.concatenate([c.values.ravel() for c in cubes]).reshape(model.op.output_shape)
    return model, y, cubes[0].rho


def _equalized(spec: PipelineSpec, model: FormationModel, y: np.ndarray) -> np.ndarray:
    """The observation the solve sees: ``y``, LRI/HRI-equalized if ``spec`` asks."""
    if not spec.equalize:
        return y
    lri = model.lri_support
    if lri is None or lri.all() or not lri.any():
        raise ValueError(f"equalize needs both sensor classes; {model.preset.name} lacks one")
    return equalize_lri_stats(y, lri)


def _solve(spec: PipelineSpec, model: FormationModel, y: np.ndarray, rho: float,
           baseline: np.ndarray) -> np.ndarray:
    """``reconstruct`` after its baseline: the baseline itself, or the jodefu
    solve from it."""
    if spec.method == "baseline":
        return baseline
    rp = jodefu_presets(spec.method)
    grad = tv_op(model.op.input_shape)
    norm = metric_norm(spec.norm_kind or rp.norm_kind)
    cfg = SolverConfig(lambda_bar=spec.lambda_bar, rho_y=rho, q_max=spec.iters, x0=baseline,
                       gram=model.gram)
    xhat, _ = jodefu_solve(model.op, grad, norm, y, cfg)
    return xhat


def reconstruct(spec: PipelineSpec, model: FormationModel, y: np.ndarray,
                rho: float) -> np.ndarray:
    """Reconstruct stage: optionally equalize the observation, then run the
    baseline, which is both the quality floor and the start of the solve,
    and, for a jodefu method, ``jodefu_solve`` from it with the solver
    fields of ``spec`` on the device model ``model``."""
    y = _equalized(spec, model, y)
    return _solve(spec, model, y, rho, baseline_reconstruct(y, model))


def evaluate(reference: DataCube, estimate: DataCube, dataset: str, formation: str,
             reconstruction: str, lambda_bar: float | None,
             compression_ratio: float) -> QualityReport:
    """Evaluate stage: one report row comparing the estimate with the
    reference."""
    return QualityReport(
        dataset=dataset, formation=formation, reconstruction=reconstruction,
        lambda_bar=lambda_bar, ssim=ssim(reference, estimate),
        psnr=psnr(reference, estimate), sam=sam(reference, estimate),
        compression_ratio=compression_ratio)


@dataclass
class _Acquisition:
    """One acquisition: the reference it was made from, the device model,
    the read-only noisy observation and its read-only baselines, by
    ``equalize`` flag."""

    reference: DataCube
    model: FormationModel
    y: np.ndarray
    baselines: dict[bool, np.ndarray] = dataclasses.field(default_factory=dict)


# run_pipeline's record: the last acquisition it made, under its device and seed (tests clear it)
_RECORD: dict[tuple, _Acquisition] = {}


def _acquire(device: FormationPreset, reference: DataCube, seed: int) -> _Acquisition:
    """The simulate stage, from the record when it holds the same
    acquisition (see :func:`run_pipeline`)."""
    key = (device, seed)
    acquisition = _RECORD.get(key)
    if (acquisition is not None and acquisition.reference.rho == reference.rho
            and np.array_equal(acquisition.reference.values, reference.values)):
        return acquisition
    _RECORD.clear()  # one acquisition at a time: free it before making the next
    model, y = simulate(device, reference, seed)
    y.flags.writeable = False
    acquisition = _Acquisition(reference, model, y)
    if device.mask in (*BUILTIN_TILES, "random"):  # a tile file's build reads the file
        _RECORD[key] = acquisition
    return acquisition


def run_pipeline(spec: PipelineSpec) -> PipelineResult:
    """Execute the four validation steps and optionally write artifacts
    (``reference``, ``estimate``, the observation ``acquisition`` with its
    ``acquisition.preset``, and ``report.csv``/``.json``) to ``out_dir``.

    Fully deterministic: identical specs give bitwise identical outputs.

    Every row loads its reference and checks its shape first.  A private
    record then keeps the last acquisition made here: the device model,
    the noisy observation and the interpolation baseline.  A row reuses it
    when its device (the preset after the method's PAN blur) and seed are
    the recorded ones and its loaded samples and dynamic range equal the
    recorded reference's; the baseline only for the same ``equalize``
    flag.  A device whose mask is a tile file is not recorded, as its
    build reads that file.  The record holds one acquisition, so
    consecutive rows on one device share it, and every output stays
    bitwise that of a fresh run of the same spec.  The report's label and
    the returned reference come from the row's own load; the returned
    observation is a read-only view of the record's.
    """
    reference, preset, label = load_reference(spec.formation, spec.dataset, spec.seed)
    check_report_shape(reference)  # fail before the solve, not in evaluate
    acq = _acquire(_effective_preset(spec, preset), reference, spec.seed)
    model, y = acq.model, acq.y
    y_solve = _equalized(spec, model, y)
    baseline = acq.baselines.get(spec.equalize)
    if baseline is None:
        baseline = acq.baselines[spec.equalize] = baseline_reconstruct(y_solve, model)
        baseline.flags.writeable = False
    xhat = _solve(spec, model, y_solve, reference.rho, baseline)
    estimate = DataCube(xhat, rho=reference.rho, band_labels=reference.band_labels)
    report = evaluate(reference, estimate, label, model.preset.name, spec.method,
                      None if spec.method == "baseline" else spec.lambda_bar,
                      compression_ratio(model.preset))

    if spec.out_dir is not None:
        os.makedirs(spec.out_dir, exist_ok=True)
        write_datacube(os.path.join(spec.out_dir, "reference"), reference)
        write_datacube(os.path.join(spec.out_dir, "estimate"), estimate)
        write_observation(os.path.join(spec.out_dir, "acquisition"), model, y, reference.rho)
        write_report(os.path.join(spec.out_dir, f"report.{spec.report_format}"),
                     [report], spec.report_format)

    return PipelineResult(report, reference, y.view(), estimate)


SWEEP_AXES = ("lambda_bar", "norm_kind", "rho_b")


def run_sweep(spec: PipelineSpec, axis: str, values) -> list[QualityReport]:
    """Vary one study axis (regularization weight, norm kind or the PAN blur
    diameter of a device that applies one) around a base run, one row per point.

    Points on the ``lambda_bar`` and ``norm_kind`` axes share one device, so
    every point after the first reuses ``run_pipeline``'s record of the last
    acquisition (one build, observation and baseline); each ``rho_b`` point
    is a device of its own.  Rows stay bitwise those of fresh runs."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if axis == "rho_b":  # the blur diameter is a field of the device
        if spec.formation.name not in PAN_BLUR_PRESETS:
            raise ValueError(f"rho_b: the {spec.formation.name} formation applies no PAN blur")
        axis, values = "formation", [dataclasses.replace(
            spec.formation, hri_blur="butterworth", rho_b=value) for value in values]
    # every point is checked before the first one runs
    points = [dataclasses.replace(spec, **{axis: value}, out_dir=None) for value in values]
    return [run_pipeline(point).report for point in points]
