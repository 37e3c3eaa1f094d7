"""Primal-dual reconstruction of a datacube from a compressed acquisition.

Minimizes ``0.5 ||A(X) - y||^2 + lam * g(L(X))`` with the Chambolle-Pock
iteration (Chambolle & Pock 2011).  The regularizer always enters through
its conjugate, whose prox is the projection onto the dual-norm ball of
radius lam.  The data term takes one of two places, in one function,
chosen by what the solve is handed:

* the over-relaxed primal-data update, when ``SolverConfig.gram``
  carries AA* of the operator.  ``FormationModel.gram`` is one for every
  shipped device, and ``harness.reconstruct`` passes it: the diagonal
  e = diag(AA*) on cfa and cassi (``DiagonalGram``), the alias-domain
  blocks on mrca and multires (``AliasGram``);
* the dual-data update for a caller that passes no Gram (an operator
  built by hand, or a bench that calls ``jodefu_solve`` directly).

Both start from X = ``SolverConfig.x0`` (a float64 copy; the harness
passes the interpolation baseline) or, without one, X = A*(y), with
Xbar = X and every dual 0.  Both carry their duals scaled by the primal
step (Wt = tau * W, Ut = tau * U), and both track the cost
0.5 ||A(X) - y||^2 + lam * g(L(X)) at the iterate the solve returns only,
unless ``SolverConfig.cost_stride`` asks for more.

The primal-data update is the over-relaxed Chambolle-Pock iteration
(Condat 2013, "A primal-dual splitting method for convex optimization
involving Lipschitzian, proximable and linear composite terms";
Chambolle & Pock 2016, "On the ergodic convergence rates of a first-order
primal-dual algorithm") with G the data term and K = L.  One relaxed step
takes the primal step first and moves both iterates ``RELAXATION`` = rho
of the way to its result:

    X~  = prox_{tau G}(X - L*(Wt))
    W~t = P_{tau lam}(Wt + cL L(2 X~ - X))
    X  <- X + rho (X~ - X),    Wt <- Wt + rho (W~t - Wt)

The prox of tau G is the data step.  At X' = X - L*(Wt) it solves
(I + tau A*A) X~ = X' + tau A*(y), and by the Woodbury identity

    X~ = X' - A*(I/tau + AA*)^-1 (A(X') - y).

The Gram takes it, by ``gram.data_step(tau, y)``.  On AA* = diag(e)
(``DiagonalGram``) it runs as written: the Gram's own operator, one
division per observation sample by 1/tau + e, and its adjoint.
Alias-domain blocks (``AliasGram``) take the analytic l2-l2 solution of
Zhao, Wei, Basarab, Dobigeon, Kouame & Tourneret (2016, "Fast single image
super-resolution using a new analytical solution for l2-l2 problems"):
at each coarse frequency w, x(w) - A(w)^H (I/tau + G(w))^-1 (A(w) x(w) -
y(w)).  One step then runs one band-wise real FFT of X' and its inverse,
the block products and one batched matrix-vector product, and no A or
A*; the inverses of I/tau + G(w) and y's coefficients are formed once
per solve, at its tau.

The loop runs these steps shifted by half a step: an iteration finishes
the dual half and the relaxation of the step the last one began, then
takes the primal half of the next, and the solve returns the last X~.
It starts from X~ = X = X0 and Wt = 0, as if a step from (X0, 0) had
returned X~ = X0, which it does wherever X0 fits the data (the cfa and
cassi baselines).  At rho = 1 this is Algorithm 1 of Chambolle & Pock
2011, iterate for iterate.  One iteration runs, verbatim:

    Wt   = Wt + rho (P_{tau lam}(Wt + L(cL * Xbar)) - Wt)
    X    = (2 - rho) X~ + (rho - 1) Xbar     # = X + rho (X~ - X)
    X'   = X - L*(Wt)
    X~   = X' - A*(I/tau + AA*)^-1 (A(X') - y)   # the data step
    Xbar = 2 X~ - X

with cL = tau * sigma = 0.99 / |L|^2 and tau = c / (lambda_bar |A|^2),
where c = ``gram.step``, the device's own: 0.1 on a diagonal, 0.01 on
mrca's alias-domain blocks and 0.02 on multires'.  The iteration
converges for any rho in (0, 2) and tau sigma |L|^2 < 1 (here 0.99),
with no condition on |A|: c and rho only set the speed.  Each c
was chosen by a probe over the desk rows it serves (64x64x4, scene seeds
1-5 and 11), rho = 1.3 by one over all 48 of them; the grids and the
per-row PSNRs are in ``BENCH_23.json`` (c on a diagonal),
``BENCH_24.json`` (c on the blocks) and ``BENCH_25.json`` (rho).

Nothing in the loop ties the Gram to A: the solve's A does not run in
the data step, and on alias-domain blocks no operator does.  A Gram of
another operator with the same output shape would solve another problem
while the trace reports A's cost.  Before the
first iteration the update therefore takes one data step from X' = 0
and checks its result X~ against the prox's optimality condition
X~ + tau A*(A(X~) - y) = 0.  It raises ``ValueError`` when the
norm of the left side exceeds ``GRAM_TOL`` = 1e-10 times
(1 + tau |A|^2) (||X~|| + tau |A| ||y||), which bounds what rounding
leaves: where G(w) is near singular (multires) the data step itself
carries an error of about eps tau |A| ||y||, and the check multiplies it
by up to tau |A|^2.  On every shipped device at 8x8 to 256x256 and
lambda_bar from 1e-12 to 10 the left side reads at most 2e-16 of that
bound.  A Gram of another operator reads 2e-3 to 1.4e-2 of it at
lambda_bar >= 1e-3 (the blurred mrca's blocks handed to mrca without
the blur, or the reverse, or twice cfa's diagonal) and 2.5e-8 to 7.5e-8
at 1e-8, so the check catches it down to a lambda_bar of about 1e-10.

Over n iterations L*, the prox and the data step run n times, and L n
times plus one per tracked cost; the solve's A and A* do not run in the
loop.  Each tracked cost runs A once, for its residual A(X~) - y.  The
Gram check runs one data step, A and A* once more per solve, and A*
runs once more at the start when there is no x0.

The dual-data update runs on the stacked operator K = [A; L], one dual
per block, each with its own step (Pock & Chambolle 2011, diagonal
preconditioning).  The data term's conjugate has the closed-form prox
u -> (u - sigma_A y) / (1 + sigma_A).  One iteration runs, verbatim:

    Ut  = (Ut + cA * (A(Xbar) - y)) / (1 + sigma_A)
    Wt  = P_{tau lam}(Wt + L(cL * Xbar))        # dual-ball projection
    X   = X - A*(Ut) - L*(Wt)
    Xbar = 2 X - X_prev
    AX  = A(X)

with cA = tau * sigma_A and cL = tau * sigma_L.  A(Xbar) = 2 A(X) - A(X_prev)
comes by linearity from the two last AX, so A runs once per iteration, on
the iterate the solve returns, and once on the start: over n iterations A
and A* run n + 1 times (the first A* forms the start A*(y)), L* n times and
L n times plus one per tracked cost.  The cost reuses AX.  A*(Ut) is
taken first, so that L, the projection and L* then run back to back on
the field Wt while it is still in cache.  The steps come
from the certified norm bounds and lambda_bar only:

    tau = 0.01 / (lambda_bar |A|^2),  cA = 0.495 / |A|^2,  cL = 0.495 / |L|^2,

so tau (sigma_A |A|^2 + sigma_L |L|^2) = 0.99 < 1 bounds
tau |sigma_A A*A + sigma_L L*L| below 1, the convergence condition of the
preconditioned iteration, for every lambda_bar.  No gradient step caps tau:
the data term sits in the dual.  In the null space of A only Wt moves X, by
up to tau * lam per iteration, and tau * lam = 0.01 rho_y / |A|^2 does not
depend on lambda_bar.  A fixed tau |A|^2 = 10 instead lost PSNR at
lambda_bar >= 3e-3 on the sweep of ``scripts/parameter_sweep.py``
(``BENCH_16.json``).  At the default lambda_bar = 1e-3, tau |A|^2 = 10
took the fewest iterations to quality on mrca among 2, 5, 10, 20 and 50.
No relaxation.

The solve stops after the first iteration k + 1 at which the relative
primal residual is at most ``PRIMAL_TOL`` = 1e-3 and, on the dual-data
update, the relative data-dual residual at most ``DUAL_TOL`` = 1e-2; the
primal-data update has no data dual, and the primal test alone stops it.
``q_max`` is only a cap, and ``SolverTrace.converged`` says which ended the
solve.  Both residuals come from arrays the iteration holds anyway, with no
extra A, A*, L, L* or g call, and the data-dual norm is taken only once the
primal test passes:

    primal     ||X_k - X_{k+1}|| / ||L*(Wt_{k+1})||   (dual-data)
               ||X - X~|| / ||L*(Wt)||                (primal-data)
    data dual  ||U_{k+1} - (A(X_{k+1}) - y)|| / ||A(X_{k+1}) - y||

X_k - X_{k+1} is the primal residual scaled by tau, A*(Ut) + L*(Wt); on
the primal-data update X - X~ is the unrelaxed step, so the test does not
depend on rho and at rho = 1 it is the test of the unrelaxed iteration.
The data-block dual residual (U_k - U_{k+1}) / sigma_A + A(Xbar_k) -
A(X_{k+1}) equals U_{k+1} + y - A(X_{k+1}) by the closed-form prox, which
needs no copy of U_k.  The denominators are chosen on purpose.
||L*(Wt)|| stays bounded by the dual ball, so a diverging iterate cannot
inflate it; ||A(X) - y|| falls to 0 only when the data are fit exactly,
and the test then asks the dual residual to fall with it.  Dividing the
primal residual by max(||A*(U)||, ||L*(W)||) instead "converged" a solve
whose lying norm bound had driven its iterates to 1e157, at iteration
29; dividing the dual one by max(||U||, ||A(X)||) stopped the
lambda_bar = 1e-12 identity solve at iteration 14, 4e-4 from the data.
With these denominators the first raises ``SolverDiverged`` and the
second stops at iteration 81, 2.6e-12 from the data.

The primal-data test needs no guard against its zero denominator.  A
step taken from Wt = 0 stops every solve whose X0 fits the data (the cfa
and cassi baselines) after one iteration, with 0 <= PRIMAL_TOL * 0.  Here
the first primal half already follows the dual's half step from Wt = 0,
to rho P_{tau lam}(cL L(X0)), which is 0 only where L(X0) = 0.  An X0
that also fits the data is then the minimizer, and the solve returns it
after one iteration.  ``SolverDiverged`` on the primal-data update reads
the norm of the step that the test takes, where a non-finite X~ shows.

The dual-data update, which runs only for a caller that passes no Gram,
may take the looser data-dual tolerance because that residual lags the
iterate.  By the prox, U is a running average of A(Xbar) - y:
U_{k+1} = (1 - w) U_k + w (A(Xbar_k) - y) with w = sigma_A / (1 + sigma_A)
= 49.5 lambda_bar / (1 + 49.5 lambda_bar), about 0.047 at the default
lambda_bar = 1e-3.  Once X has settled the residual still shrinks by only
1 - w per iteration, so it needs about ln(500) / w ~ 130 iterations to
reach 2e-3, whether or not X still moves, and about 100 to reach 1e-2.
The primal residual tracks X itself and carries the tight tolerance.
When the mrca and multires rows of the 64x64x4 desk experiment (scene
seeds 1-5 and 11) still ran this update (``BENCH_23.json``), one
tolerance of 2e-3 on both kept them running for 124-250 iterations;
these two stopped them after 91-135, at worst 0.0016 dB below their PSNR
at 250 iterations (``BENCH_19.json``).  The dual residual of the L block
is not tested on either update: it would cost one more L call, or two
field-sized buffers, per iteration.

The dual-data update owns seven buffers, allocated once and updated in
place: the cubes X and Xbar (held scaled, cL * Xbar), the field Wt, and
Ut, AX, the residual R and the data-dual residual D on the observation
grid.  Both updates allocate Wt like L's first output (``np.zeros_like``),
so it takes L's memory order: the plane-major field of ``tv_op``, whose
sum with L's output, projection and relaxation then run over contiguous
planes.  It adds L(cL * Xbar) to Wt and projects Wt in place
(``prox_conj(..., out=...)``): unrelaxed, it never needs the previous
duals again.  The primal-data update owns three, X~, Xbar (held scaled,
cL * Xbar, and in turn X and X~ - X within an iteration) and Wt, and the
data step its own: on a diagonal the denominator 1 / tau + e and the
residual R on the observation grid; on alias-domain blocks the inverted
blocks (4 to 4.5 cubes on the shipped devices) and y's coefficients (the
kernel spectra at the aliases and the index maps are the ``AliasGram``'s,
formed with the model).  Each
alias-domain step allocates its spectra, a few cubes, and frees them.
The relaxation needs Wt and W~t at once, one field more than the
unrelaxed update held: Wt + L(cL * Xbar) is formed in L's output array
(copied first where it is read-only or may overlap Xbar), the projection
writes rho W~t there (its ``weight``) and Wt is relaxed from it.  Besides
the layers an iteration then makes four field passes (that sum,
(1 - rho) Wt, the add, Wt's finiteness test) and nine cube passes.
Any other array an operator returns is only read: an operator may hand
back its input, a view of it or a read-only broadcast.  The last A* result is kept
until the next one replaces it.  Freeing it after its use lets the C heap
shrink at the end of every iteration and fault the same pages back in
during the next iteration (~2000 against ~70 minor faults per iteration at
256x256x4), which costs more time than the cube saves in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOp
from .regularizers import MetricNorm

__all__ = [
    "PRIMAL_TOL",
    "DUAL_TOL",
    "RELAXATION",
    "SolverConfig",
    "SolverTrace",
    "SolverDiverged",
    "objective",
    "jodefu_solve",
]


# relative tolerances of the primal and the data-dual residual of the stop
# rule (module docstring)
PRIMAL_TOL = 1e-3
DUAL_TOL = 1e-2

# over-relaxation rho of the primal-data update, in (0, 2) (module docstring)
RELAXATION = 1.3

# relative tolerance of the check that the Gram's data step is the prox of
# the operator's data term (module docstring)
GRAM_TOL = 1e-10


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
    ``q % cost_stride == 0``; each tracked cost costs one L and one g.eval,
    and on the primal-data update one A as well.  The iterates are
    updated in place either way.

    ``x0`` is the start of the primal iterate (default ``None``: A*(y)).
    It must be finite and real; the solve checks its shape against the
    operator and copies it, so the caller's array is never written.

    ``gram`` is AA* of the operator, as ``FormationModel.gram`` carries it
    (default ``None``): an object whose ``shape`` is the operator's output
    shape, whose ``step`` is its c and whose ``data_step(tau, y)`` returns
    the whole data step, the in-place map x -> x - A*(I/tau + AA*)^-1
    (A(x) - y) on cubes (``DiagonalGram``: cfa, cassi; ``AliasGram``:
    mrca, multires).  With it the solve takes the primal-data update,
    without it the dual-data one (module docstring).  The solve rejects
    anything else, such as a bare array, a Gram whose shape is not the
    operator's output shape, or a Gram whose data step is not the prox of
    the operator's data term (one data step, one A and one A* per solve),
    before the first iteration.
    """

    lambda_bar: float = 1e-3
    rho_y: float = 1.0
    q_max: int = 250
    cost_stride: int | None = None
    x0: np.ndarray | None = field(default=None, compare=False, repr=False)
    gram: object | None = field(default=None, compare=False, repr=False)

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
    """What one solve reports: the number of iterations run, whether it
    stopped on the residual test (``converged``) or at the ``q_max`` cap,
    and the costs tracked at the iterations ``cost_iters`` (see
    ``SolverConfig``)."""

    cost_iters: list[int] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


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

    if cfg.gram is not None:
        try:
            shape, _, _ = cfg.gram.shape, cfg.gram.step, cfg.gram.data_step
        except AttributeError:
            raise ValueError(f"gram of type {type(cfg.gram).__name__} is not a Gram: it needs "
                             "shape, step and data_step(tau, y) (see SolverConfig)") from None
        if shape != A.output_shape:
            raise ValueError(f"gram of shape {shape} (operator output {A.output_shape}): "
                             "the shapes differ")

    # every buffer is owned and updated in place; an operator's output may
    # be its input (identity), a view of it or a read-only broadcast, so it
    # is only ever read, except L's on the primal-data update (below)
    if cfg.x0 is None:
        x = A.adjoint_apply(y).copy()
    else:
        x = np.array(cfg.x0, dtype=np.float64)
    trace = SolverTrace()
    if cfg.gram is None:
        _dual_data(A, L, g, y, x, cfg, trace)
    else:
        _primal_data(A, L, g, y, x, cfg, trace)
    return x, trace


def _diverged(q: int, A: LinearOp, L: LinearOp, dual: bool) -> SolverDiverged:
    if dual:
        return SolverDiverged(f"non-finite dual iterate at q={q}; check the norm bound of "
                              f"{L.name} (={L.norm_bound:g})")
    return SolverDiverged(f"non-finite iterate at q={q}; check the norm bounds of "
                          f"{A.name} (={A.norm_bound:g}) and {L.name} (={L.norm_bound:g})")


def _record(trace: SolverTrace, q: int, cfg: SolverConfig, converged: bool, cost) -> bool:
    """Close iteration q in the trace, tracking ``cost()`` where it is due;
    returns whether the solve stops here."""
    trace.converged = bool(converged)
    trace.iterations = q + 1
    if (converged or q == cfg.q_max - 1
            or (cfg.cost_stride and q % cfg.cost_stride == 0)):
        trace.cost_iters.append(q)
        trace.costs.append(cost())
    return trace.converged


def _dual_data(A, L, g, y, x, cfg, trace):
    """The dual-data update (module docstring), updating ``x`` in place."""
    # certified steps; the duals are carried scaled by tau, so sigma_A and
    # sigma_L enter through c_a and c_l
    lam = cfg.resolved_lambda()
    tau = 0.01 / (cfg.lambda_bar * A.norm_bound ** 2)
    c_a = 0.495 / A.norm_bound ** 2  # = tau * sigma_A
    c_l = 0.495 / L.norm_bound ** 2  # = tau * sigma_L
    shrink = 1.0 / (1.0 + c_a / tau)  # = 1 / (1 + sigma_A)
    radius = tau * lam
    xbar = np.multiply(x, c_l)  # c_l * Xbar
    ax = A.apply(x).copy()
    r = ax - y  # A(Xbar) - y
    u = np.zeros_like(r)
    d = np.empty_like(r)  # data-block dual residual
    w = None  # allocated like L's first output
    for q in range(cfg.q_max):
        r *= c_a
        u += r
        u *= shrink
        v = A.adjoint_apply(u)  # lives on until the next A* result replaces it
        # L, the projection and L* then run back to back on the field
        lx = L.apply(xbar)
        if w is None:
            w = np.zeros_like(lx)
        w += lx
        del lx
        g.prox_conj(w, radius, out=w)
        ltw = L.adjoint_apply(w)
        np.copyto(xbar, x)  # X_prev
        x -= v
        x -= ltw
        ltw_norm = np.linalg.norm(ltw)
        del ltw  # freed before A runs, so the peak holds no extra cube

        if not np.all(np.isfinite(x)):
            raise _diverged(q, A, L, dual=False)
        if not np.all(np.isfinite(w)):
            raise _diverged(q, A, L, dual=True)
        np.subtract(x, xbar, out=xbar)  # X - X_prev, the primal residual times tau
        primal_ok = np.linalg.norm(xbar) <= PRIMAL_TOL * ltw_norm
        xbar += x
        xbar *= c_l  # c_l * (2 X - X_prev)
        ax_new = A.apply(x)
        np.subtract(ax_new, y, out=r)
        converged = False
        if primal_ok:
            np.multiply(u, 1.0 / tau, out=d)
            d -= r  # U - (A(X) - y)
            converged = np.linalg.norm(d) <= DUAL_TOL * np.linalg.norm(r)
        if _record(trace, q, cfg, converged, lambda: _cost(r, L.apply(x), g, lam)):
            break
        r += ax_new
        r -= ax  # 2 A(X) - A(X_prev) - y
        np.copyto(ax, ax_new)


def _check_data_step(A, y, data, tau):
    """Raise ``ValueError`` unless ``data`` is the prox of tau/2 ||A(.) - y||^2
    (module docstring): from X' = 0 it must return X~ with
    X~ + tau A*(A(X~) - y) = 0, up to rounding."""
    xt = np.zeros(A.input_shape)
    data(xt)
    bound = A.norm_bound
    scale = (1.0 + tau * bound ** 2) * (np.linalg.norm(xt) + tau * bound * np.linalg.norm(y))
    r = A.apply(xt) - y
    xt /= tau
    xt += A.adjoint_apply(r)  # X~ / tau + A*(A(X~) - y), in place: no cube more
    gap = tau * np.linalg.norm(xt)
    if not gap <= GRAM_TOL * scale:
        raise ValueError(f"gram is not AA* of {A.name}: its data step misses the prox of "
                         f"the data term by {gap:.3g}, more than {GRAM_TOL:g} of {scale:.3g}")


def _primal_data(A, L, g, y, x, cfg, trace):
    """The over-relaxed primal-data update (module docstring), updating
    ``x`` in place: on entry X~ = X = X0, on return the last X~."""
    lam = cfg.resolved_lambda()
    tau = cfg.gram.step / (cfg.lambda_bar * A.norm_bound ** 2)
    c_l = 0.99 / L.norm_bound ** 2  # = tau * sigma_L
    radius = tau * lam
    data = cfg.gram.data_step(tau, y)  # x -> x - A*(I/tau + AA*)^-1 (A(x) - y) in place
    _check_data_step(A, y, data, tau)
    xbar = np.multiply(x, c_l)  # c_l * Xbar, with Xbar = 2 X~ - X; then X
    w = None  # allocated like L's first output
    for q in range(cfg.q_max):
        s = L.apply(xbar)
        if not s.flags.writeable or np.may_share_memory(s, xbar):
            s = s.copy(order="K")
        if w is None:
            w = np.zeros_like(s)
        s += w
        g.prox_conj(s, radius, out=s, weight=RELAXATION)  # rho W~
        w *= 1.0 - RELAXATION
        w += s  # Wt + rho (W~ - Wt)
        del s
        xbar *= (RELAXATION - 1.0) / c_l
        x *= 2.0 - RELAXATION
        xbar += x  # X + rho (X~ - X) = (2 - rho) X~ + (rho - 1) Xbar
        ltw = L.adjoint_apply(w)
        np.subtract(xbar, ltw, out=x)
        ltw_norm = np.linalg.norm(ltw)
        del ltw  # freed before the data step, so the peak holds no extra cube
        data(x)  # X~, the exact prox of the data term

        np.subtract(x, xbar, out=xbar)  # X~ - X, the unrelaxed step
        step = np.linalg.norm(xbar)
        if not np.isfinite(step):
            raise _diverged(q, A, L, dual=False)
        if not np.all(np.isfinite(w)):
            raise _diverged(q, A, L, dual=True)
        xbar += x
        xbar *= c_l  # c_l * (2 X~ - X)
        if _record(trace, q, cfg, step <= PRIMAL_TOL * ltw_norm,
                   lambda: _cost(A.apply(x) - y, L.apply(x), g, lam)):
            break
