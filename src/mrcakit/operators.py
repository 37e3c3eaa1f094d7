"""Composable linear operators with exact adjoints and certified norm bounds.

Every operator carries a forward map, its exact adjoint and an upper bound
on its operator norm.  Bounds are certified (never estimates): composition
multiplies them, stacking takes the root of the sum of squares, pointwise
summation adds them.  The two validation utilities at the bottom are the
workhorses of the test suite: a randomized inner-product adjoint check and
a power-iteration estimate of the true norm (always a lower bound, so it
must stay below ``norm_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .datacube import check_integer

__all__ = [
    "LinearOp",
    "StackParts",
    "identity",
    "zero_op",
    "scale_op",
    "compose",
    "stack",
    "add",
    "adjoint_dot_test",
    "power_iteration_norm",
]

Shape = tuple[int, ...]


@dataclass(frozen=True)
class StackParts:
    """Block layout of a stacked observation vector."""

    shapes: tuple[Shape, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(np.prod(s)) for s in self.shapes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def split(self, y: np.ndarray) -> list[np.ndarray]:
        """Split a flat stacked vector back into its blocks."""
        y = np.asarray(y).ravel()
        if y.size != self.total:
            raise ValueError(f"expected {self.total} samples, got {y.size}")
        out, offset = [], 0
        for shape, size in zip(self.shapes, self.sizes):
            out.append(y[offset:offset + size].reshape(shape))
            offset += size
        return out

    def join(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        if len(blocks) != len(self.shapes):
            raise ValueError("wrong number of blocks")
        return np.concatenate([np.asarray(b).ravel() for b in blocks])


class LinearOp:
    """A linear map with forward apply, exact adjoint and norm bound.

    Parameters
    ----------
    input_shape, output_shape : tuple of int
        Array shapes consumed and produced by :meth:`apply`.
    forward, adjoint : callable
        The linear map and its adjoint; must satisfy
        ``<forward(x), y> == <x, adjoint(y)>`` for all conformable x, y.
    norm_bound : float
        Certified upper bound on the operator norm.
    parts : StackParts, optional
        Block layout when the output is a stacked observation.
    """

    def __init__(self, input_shape, output_shape, forward, adjoint,
                 norm_bound, name="op", parts: StackParts | None = None):
        self.input_shape: Shape = tuple(int(n) for n in input_shape)
        self.output_shape: Shape = tuple(int(n) for n in output_shape)
        self._forward: Callable = forward
        self._adjoint: Callable = adjoint
        self.norm_bound = float(norm_bound)
        self.name = name
        self.parts = parts
        if self.norm_bound < 0:
            raise ValueError("norm bound must be nonnegative")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.input_shape:
            raise ValueError(f"{self.name}: expected input {self.input_shape}, got {x.shape}")
        return np.asarray(self._forward(x), dtype=np.float64)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.output_shape:
            raise ValueError(f"{self.name}: expected output-shaped {self.output_shape}, got {y.shape}")
        return np.asarray(self._adjoint(y), dtype=np.float64)

    def __repr__(self) -> str:
        return (f"LinearOp({self.name}: {self.input_shape} -> {self.output_shape}, "
                f"|.| <= {self.norm_bound:g})")


def identity(shape) -> LinearOp:
    return LinearOp(shape, shape, lambda x: x, lambda y: y, 1.0, name="identity")


def zero_op(input_shape, output_shape) -> LinearOp:
    return LinearOp(
        input_shape, output_shape,
        lambda x: np.zeros(output_shape), lambda y: np.zeros(input_shape),
        0.0, name="zero")


def scale_op(shape, alpha: float) -> LinearOp:
    alpha = float(alpha)
    return LinearOp(shape, shape, lambda x: alpha * x, lambda y: alpha * y,
                    abs(alpha), name=f"scale({alpha:g})")


def compose(outer: LinearOp, inner: LinearOp) -> LinearOp:
    """outer after inner; the adjoint applies the individual adjoints in
    reverse order and the bound is the product of the bounds."""
    if inner.output_shape != outer.input_shape:
        raise ValueError(
            f"cannot compose: {inner.name} produces {inner.output_shape}, "
            f"{outer.name} consumes {outer.input_shape}")
    return LinearOp(
        inner.input_shape, outer.output_shape,
        lambda x: outer.apply(inner.apply(x)),
        lambda y: inner.adjoint_apply(outer.adjoint_apply(y)),
        outer.norm_bound * inner.norm_bound,
        name=f"{outer.name}∘{inner.name}",
        parts=outer.parts)


def stack(a: LinearOp, b: LinearOp) -> LinearOp:
    """Stack two operators with a common input into one flat observation.

    The output is the 1-D concatenation of both raveled outputs (block
    layout exposed through ``parts``); the adjoint sums the block adjoints
    and the bound is ``sqrt(a^2 + b^2)``.
    """
    if a.input_shape != b.input_shape:
        raise ValueError(f"stack needs a common input shape, got {a.input_shape} and {b.input_shape}")
    parts = StackParts((a.output_shape, b.output_shape))

    def forward(x):
        return parts.join((a.apply(x), b.apply(x)))

    def adjoint(y):
        ya, yb = parts.split(y)
        return a.adjoint_apply(ya) + b.adjoint_apply(yb)

    return LinearOp(
        a.input_shape, (parts.total,), forward, adjoint,
        float(np.hypot(a.norm_bound, b.norm_bound)),
        name=f"stack({a.name},{b.name})", parts=parts)


def add(a: LinearOp, b: LinearOp) -> LinearOp:
    """Pointwise sum of two operators sharing both shapes (one focal plane).

    The bound is the triangle-inequality sum of the bounds.
    """
    if a.input_shape != b.input_shape or a.output_shape != b.output_shape:
        raise ValueError("add needs operators with identical shapes")
    return LinearOp(
        a.input_shape, a.output_shape,
        lambda x: a.apply(x) + b.apply(x),
        lambda y: a.adjoint_apply(y) + b.adjoint_apply(y),
        a.norm_bound + b.norm_bound,
        name=f"({a.name}+{b.name})")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u.ravel(), v.ravel()))


def adjoint_dot_test(op: LinearOp, trials: int = 20, seed: int = 0) -> float:
    """Max relative inner-product mismatch ``|<Ax,y> - <x,A*y>|`` over
    random trials, normalized by ``|x||y| max(norm_bound, 1)``.

    A correct adjoint scores around machine precision; a wrong one O(1).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.input_shape)
        y = rng.standard_normal(op.output_shape)
        lhs = _dot(op.apply(x), y)
        rhs = _dot(x, op.adjoint_apply(y))
        denom = np.linalg.norm(x.ravel()) * np.linalg.norm(y.ravel()) * max(op.norm_bound, 1.0)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def power_iteration_norm(op: LinearOp, iters: int = 50, seed: int = 0) -> float:
    """Largest-singular-value estimate by power iteration on ``A* A``.

    The returned Rayleigh-quotient estimate is monotone non-decreasing in
    the iteration count and never exceeds the true norm, so it can only
    approach ``norm_bound`` from below.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    check_integer("seed", seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.input_shape)
    nv = np.linalg.norm(v.ravel())
    if nv == 0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(iters):
        w = op.apply(v)
        sigma = float(np.linalg.norm(w.ravel()))
        if sigma == 0.0:
            return 0.0
        v = op.adjoint_apply(w)
        nv = np.linalg.norm(v.ravel())
        if nv == 0.0:
            break
        v /= nv
    return sigma
