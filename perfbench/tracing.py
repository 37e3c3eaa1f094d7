"""In-memory spans around the benchmark's calls into mrcakit's layers.

A span records its name, start, end (seconds from the tracer's origin), its
parent span and free-form attributes.  Spans stay in memory and are
written out once, as JSON lines, when the traced run ends.  Nothing here
changes what a wrapped call computes: wrapped operators return the exact
arrays the originals return.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from mrcakit import LinearOp, harness

SPAN_KEYS = ("id", "parent", "name", "start", "end", "attrs")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter() - self._origin,
                  "end": None, "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def op(self, op: LinearOp, forward: str, adjoint: str) -> LinearOp:
        """The same operator, with a span around every apply and adjoint."""
        return LinearOp(op.input_shape, op.output_shape,
                        self.wrap(forward, op.apply), self.wrap(adjoint, op.adjoint_apply),
                        op.norm_bound, name=op.name, parts=op.parts)

    def solve(self, solve):
        """``jodefu_solve`` with its operators and metric norm traced."""
        def traced(A, L, g, y, cfg=None):
            with self.span("solver.solve") as record:
                x, trace = solve(self.op(A, "formation.A", "formation.At"),
                                 self.op(L, "regularizers.L", "regularizers.Lt"),
                                 TracedNorm(self, g), y, cfg)
                record["attrs"]["iterations"] = trace.iterations
                return x, trace
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- summaries -------------------------------------------------------

    def named(self, name: str, parent: str | None = None) -> list[dict]:
        """Spans called ``name``, optionally only those directly under a
        span called ``parent``."""
        return [s for s in self.spans if s["name"] == name
                and (parent is None or (s["parent"] is not None
                                        and self.spans[s["parent"]]["name"] == parent))]

    def median_ms(self, name: str, parent: str | None = None) -> float:
        return 1e3 * statistics.median(duration(s) for s in self.named(name, parent))

    def self_time(self, record: dict) -> float:
        """Duration minus the time its direct children cover."""
        children = (s for s in self.spans if s["parent"] == record["id"])
        return duration(record) - sum(duration(s) for s in children)


class TracedNorm:
    """A metric norm whose ``eval`` and ``prox_conj`` are traced."""

    def __init__(self, tracer: Tracer, g):
        self.kind = g.kind
        self.eval = tracer.wrap("regularizers.eval", g.eval)
        self.prox_conj = tracer.wrap("regularizers.prox", g.prox_conj)


def duration(record: dict) -> float:
    return record["end"] - record["start"]


# The public functions run_pipeline calls, with the span name each gets.
HARNESS_CALLS = {
    "build_formation": "formation.build",
    "add_gaussian_noise": "harness.noise",
    "baseline_reconstruct": "harness.baseline",
    "psnr": "metrics.psnr",
    "ssim": "metrics.ssim",
    "sam": "metrics.sam",
}


@contextlib.contextmanager
def traced_harness(tracer: Tracer):
    """Route ``run_pipeline``'s calls into the other layers through spans
    for the duration of the block."""
    saved = {name: getattr(harness, name) for name in (*HARNESS_CALLS, "jodefu_solve")}
    try:
        for name, span_name in HARNESS_CALLS.items():
            setattr(harness, name, tracer.wrap(span_name, saved[name]))
        harness.jodefu_solve = tracer.solve(saved["jodefu_solve"])
        yield
    finally:
        for name, fn in saved.items():
            setattr(harness, name, fn)
