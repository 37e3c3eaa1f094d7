"""Tests of the benchmark itself (not part of the package suite).

Run from the repository root:

    python3 -m pytest perfbench -q

They start the benchmark as a user would, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bootstrap  # noqa: E402

bootstrap.prepare()

import numpy as np  # noqa: E402

from mrcakit import SolverConfig, jodefu_solve  # noqa: E402

import problems  # noqa: E402
from bench import HostClock, timed  # noqa: E402
from tracing import SPAN_KEYS, Tracer  # noqa: E402

with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, seed: int = 11) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Two invocations of each kind with the same seed."""
    return {(w, t): [bench(w, t), bench(w, t)]
            for w, t in (("desk64", 0), ("mrca128-v2", 0), ("mrca128-v2", 1))}


def test_printed_metrics_match_benchmark_json(runs):
    for (_, trace), results in runs.items():
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for result in results:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in declared]
            for m in declared:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_counts_and_quality_repeat_across_invocations(runs):
    exact = ["iters", "psnr_db", "psnr_min_db"]
    exact_traced = [m["name"] for m in SPEC["per_layer"]
                    if m["name"].startswith(("solver.calls_", "operators.bound_ratio."))]
    for (_, trace), (first, second) in runs.items():
        for name in exact_traced if trace else exact:
            assert first["metrics"][name] == second["metrics"][name], name


def test_call_counts_today(runs):
    metrics = runs[("mrca128-v2", 1)][0]["metrics"]
    counts = {k: metrics[f"solver.calls_{k}"]["value"]
              for k in ("A", "At", "L", "Lt", "prox", "eval")}
    assert counts == {"A": 2, "At": 1, "L": 2, "Lt": 2, "prox": 1, "eval": 1}


def test_span_file_schema(runs):
    path = os.path.join(problems.OUT_DIR, "spans-mrca128-v2-11.jsonl")
    with open(path, encoding="ascii") as fh:
        spans = [json.loads(line) for line in fh]
    names = {s["name"] for s in spans}
    assert {"formation.A", "formation.At", "regularizers.L", "regularizers.Lt",
            "regularizers.prox", "regularizers.eval", "solver.solve",
            "harness.run_pipeline", "formation.build", "metrics.ssim"} <= names
    for i, s in enumerate(spans):
        assert tuple(s) == SPAN_KEYS
        assert s["id"] == i
        assert s["parent"] is None or 0 <= s["parent"] < i
        assert isinstance(s["name"], str) and isinstance(s["attrs"], dict)
        assert 0.0 <= s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


@pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
def test_traced_solve_is_bitwise_equal(method):
    case = problems.Case("mrca", method, 32)
    scene = problems.make_scene(case.size)
    problem = problems.simulate(case, scene, seed=3)
    L, g = problems.solver_inputs(problem)
    cfg = SolverConfig(q_max=20)
    plain, _ = jodefu_solve(problem.model.op, L, g, problem.y, cfg)
    tracer = Tracer()
    traced, trace = tracer.solve(jodefu_solve)(problem.model.op, L, g, problem.y, cfg)
    assert np.array_equal(plain, traced)
    assert tracer.named("solver.solve")[0]["attrs"]["iterations"] == trace.iterations == 20
    assert len(tracer.named("regularizers.prox", parent="solver.solve")) == 20


def test_host_clock_keeps_the_solve_and_its_calibrations_apart(monkeypatch):
    case = problems.Case("mrca", "jodefu-v1", 64)
    problem = problems.simulate(case, problems.make_scene(case.size), seed=3)
    L, g = problems.solver_inputs(problem)
    cfg = SolverConfig(q_max=20)
    plain, _ = jodefu_solve(problem.model.op, L, g, problem.y, cfg)
    clock = HostClock(case.size)
    # a calibration before every forward apply, and one after the solve
    monkeypatch.setattr("bench.CALIB_INTERVAL_S", 0.0)
    outer, (scaled, (ticked, _)) = timed(
        clock.time, jodefu_solve, clock.ticking(problem.model.op), L, g, problem.y, cfg)
    assert np.array_equal(plain, ticked)
    inside = clock.calibrations[1:-1]
    assert len(inside) >= 20
    assert 0.0 < clock.wall[0] < outer - sum(inside)
    assert clock.scaled == [scaled]
