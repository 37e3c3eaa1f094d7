"""Primal-dual reconstruction of a datacube from a compressed acquisition.

Minimizes ``0.5 ||A(X) - y||^2 + lam * g(L(X))`` with the plain
Loris-Verhoeven iteration (Loris & Verhoeven 2011), its dual carried
scaled by the primal step: Wt = tau * W.  One iteration runs, verbatim:

    V   = A*(tau * R)                   # R = A(X) - y, scaled in place
    X   = X - V
    Xk  = kappa * (X - LtW)             # = kappa * X_half, LtW = L*(Wt)
    Wt  = P_{tau lam}(Wt + L(Xk))       # dual-ball projection
    LtW = L*(Wt)
    X   = X - LtW                       # = X - (V + L*(Wt)), per the scheme
    R   = A(X) - y

with kappa = tau * sigma = 1 / |L|^2.  Start: X = ``SolverConfig.x0`` (a
float64 copy; the harness passes the interpolation baseline) or, without
one, X = A*(y); then Wt = tau * L(X).  Loris-Verhoeven converges from any
start to a minimizer of the same objective, so the start changes only how
many iterations reach a given quality: from A*(y), in the null space of A
only the dual moves X, and pure mosaics crawl.
Scaling the residual and the cube before L, rather than the cube after A*
and the field after L, leaves one cube-sized scale pass per iteration.  R is
formed once per iterate (A runs q_max + 1 times per solve), and L*(Wt) of
one iteration is the one the next iteration starts from (L* runs q_max + 1
times per solve).  The cost 0.5 ||R||^2 + lam * g(L(X)) reuses R and is
tracked at the final iterate only, unless ``SolverConfig.cost_stride`` asks
for more, so by default L runs q_max + 2 times and g.eval once per solve.

The solve owns four buffers, allocated once and updated in place: X, Wt,
R and a cube-sized scratch Xk.  The dual step adds L(Xk) to Wt and
projects Wt in place (``prox_conj(..., out=...)``): unrelaxed, the
iteration never needs the previous dual again.  Arrays the operators
return are only read: an operator may hand back its input, a view of it
or a read-only broadcast.  A*(tau R) is kept until the next A* result
replaces it.  Freeing it after its use lets the C heap shrink at the end
of every iteration and fault the same pages back in during the next A, A*
and L*, which costs more time than the cube saves in memory.

The steps come from the certified norm bounds: tau = 1.9 / |A|^2 and
sigma = 1 / (tau |L|^2), with no relaxation.  Loris-Verhoeven converges
for tau * beta < 2, beta = |A|^2 the Lipschitz constant of the data
term's gradient, and tau * sigma * |L|^2 <= 1, with any relaxation below
2 - tau * beta / 2 = 1.05 (Condat, Kitahara, Contreras & Hirabayashi,
SIAM Review 2023).  tau * beta = 1.9 took the fewest iterations to
quality in a sweep from 1.5 to 1.99 on mrca at 256x256x4.  No early exit.
"""

from __future__ import annotations

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

    The regularization weight is ``lambda_bar`` times the observation
    dynamic range ``rho_y``; it must be positive and finite.  The cost is
    tracked at the last iteration only, or, with an integer
    ``cost_stride``, also at every iteration q with
    ``q % cost_stride == 0``; each tracked cost costs one L and one g.eval.
    The iterates are updated in place either way.

    ``x0`` is the start of the primal iterate (default ``None``: A*(y)).
    It must be finite and real; the solve checks its shape against the
    operator and copies it, so the caller's array is never written.
    """

    lambda_bar: float = 1e-3
    rho_y: float = 1.0
    q_max: int = 250
    cost_stride: int | None = None
    x0: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError("need at least one iteration")
        if self.cost_stride is not None and self.cost_stride < 1:
            raise ValueError("cost stride must be positive")
        if self.x0 is not None:
            x0 = np.asarray(self.x0)
            if not np.can_cast(x0.dtype, np.float64, casting="same_kind"):
                raise ValueError(f"x0 of dtype {x0.dtype} and shape {x0.shape} "
                                 "is not castable to float64")
            if not np.all(np.isfinite(x0)):
                raise ValueError(f"x0 of shape {x0.shape} holds "
                                 f"{np.count_nonzero(~np.isfinite(x0))} non-finite samples")
        lam = self.lambda_bar * self.rho_y
        if not 0 < lam < np.inf:
            raise ValueError("regularization weight must be positive and finite, got "
                             f"lambda_bar * rho_y = {self.lambda_bar} * {self.rho_y} = {lam}")

    def resolved_lambda(self) -> float:
        return float(self.lambda_bar * self.rho_y)


@dataclass
class SolverTrace:
    """What one solve reports: the number of iterations run and the costs
    tracked at the iterations ``cost_iters`` (see ``SolverConfig``)."""

    cost_iters: list[int] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    iterations: int = 0


def _cost(residual: np.ndarray, Lx: np.ndarray, g: MetricNorm, lam: float) -> float:
    return 0.5 * float(np.sum(residual ** 2)) + lam * g.eval(Lx)


def objective(A: LinearOp, L: LinearOp, g: MetricNorm, lam: float,
              y: np.ndarray, x: np.ndarray) -> float:
    """Cost ``0.5 ||A(x) - y||^2 + lam * g(L(x))``."""
    return _cost(A.apply(x) - np.asarray(y, dtype=np.float64), L.apply(x), g, lam)


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
    if cfg.x0 is not None and np.shape(cfg.x0) != A.input_shape:
        raise ValueError(f"x0 shape {np.shape(cfg.x0)} does not match operator "
                         f"input {A.input_shape}")

    # certified for plain LV (see the module docstring); the dual is
    # carried scaled by tau, so sigma enters only through kappa
    tau = 1.9 / A.norm_bound ** 2
    kappa = 1.0 / L.norm_bound ** 2  # = tau * sigma
    radius = tau * lam

    # x, w and r are owned and updated in place; an operator's output may
    # be its input (identity), a view of it or a read-only broadcast, so it
    # is only ever read
    if cfg.x0 is None:
        x = A.adjoint_apply(y).copy()
    else:
        x = np.array(cfg.x0, dtype=np.float64)
    w = np.multiply(L.apply(x), tau)
    ltw = L.adjoint_apply(w)
    r = A.apply(x) - y
    step = np.empty_like(x)
    trace = SolverTrace()

    for q in range(cfg.q_max):
        r *= tau
        v = A.adjoint_apply(r)  # lives on until the next A* result replaces it
        x -= v
        np.subtract(x, ltw, out=step)  # X_half, since x holds X - V
        step *= kappa
        w += L.apply(step)  # ltw may view w: it is not read again until recomputed
        g.prox_conj(w, radius, out=w)
        ltw = L.adjoint_apply(w)
        x -= ltw

        if not np.all(np.isfinite(x)):
            raise SolverDiverged(
                f"non-finite iterate at q={q}; check the norm bounds of "
                f"{A.name} (={A.norm_bound:g}) and {L.name} (={L.norm_bound:g})")
        if not np.all(np.isfinite(w)):
            raise SolverDiverged(
                f"non-finite dual iterate at q={q}; check the norm bound of "
                f"{L.name} (={L.norm_bound:g})")
        np.subtract(A.apply(x), y, out=r)
        trace.iterations = q + 1
        if q == cfg.q_max - 1 or (cfg.cost_stride and q % cfg.cost_stride == 0):
            trace.cost_iters.append(q)
            trace.costs.append(_cost(r, L.apply(x), g, lam))

    return x, trace


@dataclass(frozen=True)
class ReconstructionPreset:
    """Named solver setup: metric norm and the blur on the PAN samples of
    the device the method models."""

    norm_kind: str
    hri_blur: str
    rho_b: float


_PRESETS = {
    "jodefu-v1": ReconstructionPreset("l221", "identity", 0.0),
    "jodefu-v2": ReconstructionPreset("s1l1", "butterworth", 1.4),
}


def jodefu_presets(name: str) -> ReconstructionPreset:
    """The two shipped setups, named as ``harness.METHODS`` names them:
    ``jodefu-v1`` is the fast default (classic gradient, l221 coupling, no
    blur); ``jodefu-v2`` trades time for quality (nuclear-norm coupling and
    a 1.4 px blur on the PAN samples)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown solver preset {name!r}; choose from {tuple(_PRESETS)}")
