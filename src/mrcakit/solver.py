"""Primal-dual reconstruction of a datacube from a compressed acquisition.

Minimizes ``0.5 ||A(X) - y||^2 + lam * g(L(X))`` with an over-relaxed
Loris-Verhoeven iteration.  One iteration runs, verbatim:

    V      = A*(A(X) - y)
    X_half = X - tau * (V + L*(W))
    W_half = prox(W + sigma * L(X_half))          # dual-ball projection
    X_new  = X - rho_o * tau * (V + L*(W_half))   # V reused, per the scheme
    W_new  = W + rho_o * (W_half - W)

with tau = 0.99 / |A|^2, sigma = 1 / (tau |L|^2) derived from the certified
norm bounds, starting from X = A*(y), W = L(X).  The loop runs a fixed
number of iterations; an optional early exit on the primal change is
available but off by default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOp
from .regularizers import MetricNorm

__all__ = [
    "SolverConfig",
    "SolverTrace",
    "SolverDiverged",
    "ReconstructionPreset",
    "jodefu_presets",
    "objective",
    "jodefu_solve",
]


class SolverDiverged(RuntimeError):
    """Non-finite primal or dual iterate: some operator norm bound upstream
    is violated."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    The regularization weight can be given directly (``lam``) or in
    normalized form (``lambda_bar`` times the observation dynamic range
    ``rho_y``).  Step sizes are derived from the operator norm bounds
    unless overridden.
    """

    lam: float | None = None
    lambda_bar: float | None = 1e-3
    rho_y: float = 1.0
    rho_o: float = 1.9
    q_max: int = 250
    tau: float | None = None
    sigma: float | None = None
    early_stop_tol: float | None = None
    cost_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.rho_o < 2.0:
            raise ValueError(f"over-relaxation must lie in (0, 2), got {self.rho_o}")
        if self.q_max < 1:
            raise ValueError("need at least one iteration")
        if self.cost_stride < 1:
            raise ValueError("cost stride must be positive")

    def resolved_lambda(self) -> float:
        lam = self.lam if self.lam is not None else self.lambda_bar * self.rho_y
        if not lam > 0:
            raise ValueError(f"regularization weight must be positive, got {lam}")
        return float(lam)


@dataclass
class SolverTrace:
    """Per-iteration history of one solve."""

    cost_iters: list[int] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    primal_change: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)
    iterations: int = 0


def objective(A: LinearOp, L: LinearOp, g: MetricNorm, lam: float,
              y: np.ndarray, x: np.ndarray) -> float:
    """Cost ``0.5 ||A(x) - y||^2 + lam * g(L(x))``."""
    residual = A.apply(x) - np.asarray(y, dtype=np.float64)
    fidelity = 0.5 * float(np.sum(residual ** 2))
    return fidelity + lam * g.eval(L.apply(x))


def jodefu_solve(A: LinearOp, L: LinearOp, g: MetricNorm, y: np.ndarray,
                 cfg: SolverConfig | None = None) -> tuple[np.ndarray, SolverTrace]:
    """Run the iteration and return the estimate with its trace.

    ``L`` may be any gradient-style LinearOp producing a 4-way field with a
    valid norm bound.  Deterministic: identical inputs give bitwise
    identical results.
    """
    cfg = cfg or SolverConfig()
    lam = cfg.resolved_lambda()
    y = np.asarray(y, dtype=np.float64)
    if y.shape != A.output_shape:
        raise ValueError(f"observation shape {y.shape} does not match operator {A.output_shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"observation holds {np.count_nonzero(~np.isfinite(y))} "
                         "non-finite samples")
    if A.input_shape != L.input_shape:
        raise ValueError("A and L must consume the same cube shape")
    if A.norm_bound <= 0 or L.norm_bound <= 0:
        raise ValueError("solver needs strictly positive norm bounds")

    tau = cfg.tau if cfg.tau is not None else 0.99 / A.norm_bound ** 2
    sigma = cfg.sigma if cfg.sigma is not None else 1.0 / (tau * L.norm_bound ** 2)

    x = A.adjoint_apply(y)
    w = L.apply(x)
    trace = SolverTrace()
    start = time.perf_counter()

    for q in range(cfg.q_max):
        v = A.adjoint_apply(A.apply(x) - y)
        x_half = x - tau * (v + L.adjoint_apply(w))
        w_half = g.prox_conj(w + sigma * L.apply(x_half), lam)
        x_next = x - cfg.rho_o * tau * (v + L.adjoint_apply(w_half))
        w = w + cfg.rho_o * (w_half - w)

        change = float(np.linalg.norm((x_next - x).ravel()))
        x = x_next
        if not np.all(np.isfinite(x)):
            raise SolverDiverged(
                f"non-finite iterate at q={q}; check the norm bounds of "
                f"{A.name} (={A.norm_bound:g}) and {L.name} (={L.norm_bound:g})")
        if not np.all(np.isfinite(w)):
            raise SolverDiverged(
                f"non-finite dual iterate at q={q}; check the norm bound of "
                f"{L.name} (={L.norm_bound:g})")
        trace.primal_change.append(change)
        trace.wall_time.append(time.perf_counter() - start)
        trace.iterations = q + 1
        if q % cfg.cost_stride == 0 or q == cfg.q_max - 1:
            trace.cost_iters.append(q)
            trace.costs.append(objective(A, L, g, lam, y, x))
        if cfg.early_stop_tol is not None and change < cfg.early_stop_tol:
            break

    return x, trace


@dataclass(frozen=True)
class ReconstructionPreset:
    """Named solver setup: metric norm and the blur on the PAN samples of
    the device the method models."""

    norm_kind: str
    hri_blur: str
    rho_b: float


_PRESETS = {
    "v1": ReconstructionPreset("l221", "identity", 0.0),
    "v2": ReconstructionPreset("s1l1", "butterworth", 1.4),
}


def jodefu_presets(name: str) -> ReconstructionPreset:
    """The two shipped setups: ``v1`` is the fast default (classic gradient,
    l221 coupling, no blur); ``v2`` trades time for quality (nuclear-norm
    coupling and a 1.4 px blur on the PAN samples)."""
    key = name.lower().removeprefix("jodefu-").removeprefix("jodefu_")
    try:
        return _PRESETS[key]
    except KeyError:
        raise ValueError(f"unknown solver preset {name!r}; choose v1 or v2")
