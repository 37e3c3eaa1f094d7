"""Workload definitions shared by the benchmark and the reference generator.

Every workload reconstructs one fixed synthetic scene: the one
``run_pipeline`` synthesizes for seed 11, stored through
``write_datacube`` (so with float32 samples) and read back.  The workload
seed drives the noise draw only, the way ``run_pipeline`` derives it from
``PipelineSpec.seed``.  A scene drawn per seed moves the desk PSNR by
about 1.5 dB from seed to seed, which would drown any quality regression
the benchmark is meant to catch.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from mrcakit import (
    DataCube,
    FormationModel,
    PipelineSpec,
    SceneParams,
    add_gaussian_noise,
    build_formation,
    formation_preset,
    jodefu_presets,
    metric_norm,
    read_datacube,
    synth_scene,
    tv_op,
    write_datacube,
)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_FILE = os.path.join(HERE, "references.json")

SCENE_SEED = 11
NOISE_SIGMA = 0.01
NBANDS = 4
DESK_ITERS = 250
REFERENCE_ITERS = 2000
TTQ_MARGIN_DB = 0.1
# The time-to-quality workloads need a stored long-run reference per noise
# draw, so ``--seed n`` selects noise draw ``n % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 10

FORMATIONS = ("mrca", "multires", "cfa", "cassi")
METHODS = ("baseline", "jodefu-v1", "jodefu-v2")


@dataclass(frozen=True)
class Case:
    """One formation reconstructed by one method at one image size."""

    formation: str
    method: str
    size: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.size, self.size, NBANDS)

    @property
    def label(self) -> str:
        return f"{self.formation}/{self.method}"


DESK_CASES = tuple(Case(f, m, 64) for f in FORMATIONS for m in METHODS)
TTQ_CASES = {
    "mrca256-v1": Case("mrca", "jodefu-v1", 256),
    "mrca128-v2": Case("mrca", "jodefu-v2", 128),
}
WORKLOADS = ("desk64", *TTQ_CASES)


def derived_seeds(seed: int) -> tuple[int, int]:
    """Scene and noise seeds, derived as ``run_pipeline`` derives them."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


def noise_seed_index(workload: str, seed: int) -> int:
    """The seed whose noise draw a workload run uses."""
    return seed % REFERENCE_SEEDS if workload in TTQ_CASES else seed


def base_preset(case: Case):
    return formation_preset(case.formation, case.size, case.size, NBANDS,
                            noise_sigma=NOISE_SIGMA)


def device_preset(case: Case):
    """The simulated device: the preset, plus the method's PAN blur when
    the method models one (the rule ``run_pipeline`` applies)."""
    preset = base_preset(case)
    if case.method != "baseline":
        rp = jodefu_presets(case.method)
        if rp.hri_blur == "butterworth":
            preset = dataclasses.replace(preset, hri_blur="butterworth", rho_b=rp.rho_b)
    return preset


def scene_path(size: int) -> str:
    return os.path.join(OUT_DIR, f"scene{size}")


def make_scene(size: int) -> DataCube:
    """Write the workload scene where ``run_pipeline`` can load it, and
    return it as loaded."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scene_seed, _ = derived_seeds(SCENE_SEED)
    path = scene_path(size)
    # write beside the target, then rename: a concurrent run never reads a
    # half-written file (every run writes the same bytes)
    staging = f"{path}.{os.getpid()}"
    write_datacube(staging, synth_scene(SceneParams(size, size, NBANDS), seed=scene_seed))
    for ext in (".raw", ".hdr"):
        os.replace(staging + ext, path + ext)
    return read_datacube(path)


@dataclass
class Problem:
    case: Case
    model: FormationModel
    y: np.ndarray


def build(case: Case) -> FormationModel:
    return build_formation(device_preset(case))


def observe(model: FormationModel, scene: DataCube, seed: int) -> np.ndarray:
    """Simulate the acquisition and add the noise draw of ``seed``."""
    _, noise_seed = derived_seeds(seed)
    return add_gaussian_noise(model.op.apply(scene.values), NOISE_SIGMA * scene.rho,
                              seed=noise_seed)


def simulate(case: Case, scene: DataCube, seed: int) -> Problem:
    """Build the device and draw the noisy observation for one case."""
    model = build(case)
    return Problem(case, model, observe(model, scene, seed))


def pipeline_spec(case: Case, seed: int, iters: int) -> PipelineSpec:
    """The ``run_pipeline`` run that reconstructs the workload scene."""
    return PipelineSpec(formation=base_preset(case), method=case.method, iters=iters, seed=seed,
                        dataset=scene_path(case.size))


def solver_inputs(problem: Problem):
    """Gradient and metric norm of the case's method, as ``run_pipeline``
    hands them to ``jodefu_solve``."""
    norm_kind = jodefu_presets(problem.case.method).norm_kind
    return tv_op(problem.case.shape), metric_norm(norm_kind)


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="ascii") as fh:
        return json.load(fh)


def reference_psnr(workload: str, seed: int) -> float:
    """Stored long-run PSNR of a time-to-quality workload at one seed."""
    index = noise_seed_index(workload, seed)
    entry = load_references().get(workload, {}).get(str(index))
    if entry is None:
        raise SystemExit(
            f"no reference PSNR for {workload} seed {index}; generate it with "
            f"`python3 perfbench/reference.py --workload {workload} --seed {index}`")
    return float(entry["psnr_db"])
