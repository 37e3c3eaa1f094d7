"""Toolkit for simulating multiresolution compressed acquisitions and
reconstructing full-resolution datacubes from them."""

from .datacube import DataCube, read_datacube, write_datacube
from .formation import (
    BlurBank,
    FormationModel,
    FormationPreset,
    ShiftMap,
    SpectralWeights,
    add_gaussian_noise,
    build_formation,
    butterworth_blur,
    cassi_shift_map,
    conv_norm_bound,
    decimate,
    equalize_lri_stats,
    formation_preset,
    mask_apply,
    mosaic,
    shift_apply,
    spatial_convolve,
    spectral_degrade,
    sum_channels,
)
from .harness import (
    PipelineSpec,
    SceneParams,
    baseline_reconstruct,
    jodefu_presets,
    run_pipeline,
    run_sweep,
    synth_scene,
)
from .masks import Mask, PeriodicTile, parse_mask_file, periodic_mask, write_mask_file
from .metrics import QualityReport, compression_ratio, psnr, sam, ssim
from .operators import (
    LinearOp,
    add,
    adjoint_dot_test,
    compose,
    identity,
    power_iteration_norm,
    stack,
)
from .regularizers import (
    MetricNorm,
    g_eval,
    metric_norm,
    prox_conj,
    tv_adjoint,
    tv_forward,
    tv_op,
)
from .solver import SolverConfig, SolverTrace, jodefu_solve, objective

__version__ = "0.1.0"
