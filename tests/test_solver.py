import dataclasses
import functools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mrca_composition, plain_cp_reference, plain_resolvent_reference, to_dense
from mrcakit import harness
from mrcakit.datacube import DataCube
from mrcakit.formation import (
    DiagonalGram,
    add_gaussian_noise,
    build_formation,
    formation_preset,
)
from mrcakit.harness import (
    PipelineSpec,
    ReconstructionPreset,
    SceneParams,
    baseline_reconstruct,
    jodefu_presets,
    run_pipeline,
    run_sweep,
    synth_scene,
)
from mrcakit.metrics import psnr
from mrcakit.operators import LinearOp, identity, zero_op
from mrcakit.regularizers import TV_NORM_BOUND, metric_norm, tv_adjoint, tv_forward, tv_op
from mrcakit.solver import (
    RELAXATION,
    SolverConfig,
    SolverDiverged,
    jodefu_solve,
    objective,
)


class TestSolverConfig:
    def test_iteration_count(self):
        with pytest.raises(ValueError):
            SolverConfig(q_max=0)

    def test_lambda_resolution(self):
        assert SolverConfig(lambda_bar=1e-3, rho_y=255.0).resolved_lambda() == pytest.approx(0.255)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda_bar=-1.0).resolved_lambda()

    @pytest.mark.parametrize("fields", [
        {"lambda_bar": float("inf")}, {"lambda_bar": float("nan")},
        {"rho_y": float("inf")}, {"lambda_bar": 1e300, "rho_y": 1e300}])
    def test_non_finite_lambda_rejected_at_construction(self, fields):
        with pytest.raises(ValueError, match=r"finite, got lambda_bar \* rho_y"):
            SolverConfig(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected_at_construction(self, bad):
        x0 = np.zeros((3, 4, 2))
        x0[1, 2, 0] = bad
        with pytest.raises(ValueError, match=r"x0 of shape \(3, 4, 2\) holds 1 non-finite"):
            SolverConfig(x0=x0)

    @pytest.mark.parametrize("x0", [np.full((2, 2, 1), "1.0"), np.zeros((2, 2, 1), complex),
                                    np.array([[[None]]], dtype=object)],
                             ids=["str", "complex", "object"])
    def test_x0_not_castable_to_float64_rejected(self, x0):
        shape = re.escape(str(x0.shape))
        with pytest.raises(ValueError,
                           match=rf"x0 of dtype .* and shape {shape} is not castable to float64"):
            SolverConfig(x0=x0)

    def test_x0_takes_no_part_in_equality(self):
        assert SolverConfig(x0=np.ones((2, 2, 1))) == SolverConfig()


class TestObjective:
    def test_perfect_fit_zero_gradients(self):
        shape = (4, 4, 2)
        x = np.zeros(shape)
        assert objective(identity(shape), tv_op(shape), metric_norm("l221"),
                         0.3, np.zeros(shape), x) == 0.0

    def test_lambda_zero_pure_fidelity(self, rng):
        shape = (3, 3, 2)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        got = objective(identity(shape), tv_op(shape), metric_norm("l111"), 0.0, y, x)
        assert got == pytest.approx(0.5 * np.sum((x - y) ** 2), rel=1e-14)

    def test_compositional_oracle(self, rng):
        shape = (4, 4, 3)
        model = build_formation(formation_preset("cfa", 4, 4, 3, mask="bayer"))
        g = metric_norm("l221")
        L = tv_op(shape)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(model.op.output_shape)
        lam = 0.7
        expected = 0.5 * np.sum((model.op.apply(x) - y) ** 2) + lam * g.eval(L.apply(x))
        assert objective(model.op, L, g, lam, y, x) == pytest.approx(expected, rel=1e-14)


class TestSolve:
    def test_identity_tiny_lambda_recovers_data(self, rng):
        shape = (8, 8, 3)
        y = rng.uniform(0, 1, shape)
        cfg = SolverConfig(lambda_bar=1e-12, q_max=250)
        xhat, _ = jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"), y, cfg)
        assert np.max(np.abs(xhat - y)) < 1e-8

    def test_final_objective_below_initial(self, rng):
        preset = formation_preset("cfa", 8, 8, 4)
        model = build_formation(preset)
        x_true = synth_scene(SceneParams(8, 8, 4), seed=2).values
        y = model.op.apply(x_true)
        L, g = tv_op(model.op.input_shape), metric_norm("l221")
        cfg = SolverConfig(lambda_bar=1e-3, q_max=50)
        xhat, trace = jodefu_solve(model.op, L, g, y, cfg)
        x0 = model.op.adjoint_apply(y)
        assert objective(model.op, L, g, 1e-3, y, xhat) <= objective(model.op, L, g, 1e-3, y, x0)

    def test_final_cost_below_first_tracked(self, rng):
        shape = (8, 8, 2)
        y = synth_scene(SceneParams(8, 8, 2), seed=4).values
        y = y + rng.normal(0, 0.05, shape)
        cfg = SolverConfig(lambda_bar=0.05, q_max=80, cost_stride=1)
        _, trace = jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"), y, cfg)
        assert trace.costs[-1] <= trace.costs[0]
        assert min(trace.costs) == pytest.approx(trace.costs[-1], rel=1e-6)

    def test_denoise_matches_long_run_self_oracle(self, rng):
        # the long run is the textbook iteration, which has no stop, so it
        # runs all 5000 iterations however early the solve under test stops
        scene = synth_scene(SceneParams(8, 8, 1), seed=3)
        noisy = scene.values + rng.normal(0, 0.05, scene.shape)
        L, g = tv_op(scene.shape), metric_norm("l221")
        A = identity(scene.shape)
        x_fast, _ = jodefu_solve(A, L, g, noisy, SolverConfig(lambda_bar=0.05, q_max=250))
        x_ref = plain_cp_reference(A, L, g, noisy, SolverConfig(lambda_bar=0.05, q_max=5000))
        o_fast = objective(A, L, g, 0.05, noisy, x_fast)
        o_ref = objective(A, L, g, 0.05, noisy, x_ref)
        assert abs(o_fast - o_ref) / o_ref < 1e-4

    @pytest.mark.parametrize("q_max, converged", [(30, False), (SolverConfig().q_max, True)])
    def test_deterministic_bitwise(self, q_max, converged):
        # at the cap and at the stop alike, a rerun ends at the same
        # iteration with the same bits
        model = build_formation(formation_preset("mrca", 8, 8, 4))
        y = model.op.apply(synth_scene(SceneParams(8, 8, 4), seed=5).values)
        L, g = tv_op(model.op.input_shape), metric_norm("l221")
        cfg = SolverConfig(lambda_bar=1e-3, q_max=q_max)
        a, trace_a = jodefu_solve(model.op, L, g, y, cfg)
        b, trace_b = jodefu_solve(model.op, L, g, y, cfg)
        assert trace_a.converged == converged
        assert (trace_a.iterations < q_max) == converged
        assert trace_a == trace_b
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_saddle_point_is_stationary(self):
        # constant data with a zero-border gradient (the first row resp.
        # column of each direction pinned to 0): X0 = y has zero gradient
        # field, so every iterate must stay put to the ulp and both
        # residuals are 0 after the first iteration, which ends the solve;
        # the solver hands each iterate to A once, so A records them all
        shape = (6, 6, 2)
        y = np.full(shape, 3.0)

        def zero_border(w):
            w[0, :, :, 0] = 0.0
            w[:, 0, :, 1] = 0.0
            return w

        L = LinearOp(shape, shape + (2,), lambda x: zero_border(tv_forward(x)),
                     lambda w: tv_adjoint(zero_border(w.copy())), TV_NORM_BOUND,
                     name="tv_zero_border")
        iterates = []

        def recording(x):
            iterates.append(x.copy())
            return x

        A = LinearOp(shape, shape, recording, lambda r: r, 1.0, name="recording_identity")
        cfg = SolverConfig(lambda_bar=1e-6, q_max=20)
        xhat, trace = jodefu_solve(A, L, metric_norm("l221"), y, cfg)
        np.testing.assert_array_equal(xhat, y)
        assert trace.iterations == 1 and trace.converged
        assert len(iterates) == 2  # X0 and the one iterate after it
        for x in iterates:
            np.testing.assert_array_equal(x, y)

    def test_divergence_detected_with_bad_bound(self, rng):
        shape = (6, 6, 1)
        inflate = LinearOp(shape, shape, lambda x: 50.0 * x, lambda y: 50.0 * y,
                           norm_bound=0.1, name="lying")
        y = rng.standard_normal(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDiverged, match="lying"):
                jodefu_solve(inflate, tv_op(shape), metric_norm("l221"), y,
                             SolverConfig(lambda_bar=1e-3, q_max=200))

    @pytest.mark.parametrize("primal_data", [False, True])
    def test_dual_divergence_detected(self, rng, primal_data):
        # an L whose forward overflows the dual iterate while its (wrong)
        # adjoint keeps the primal finite: the dual check must name L; the
        # primal-data update (e = 1 for the identity) has no condition on
        # |A|, but a lying L bound still overflows its dual
        shape = (6, 6, 1)
        grad = tv_op(shape)
        lying = LinearOp(shape, grad.output_shape, lambda x: 1e305 * grad.apply(x),
                         lambda w: np.zeros(shape), norm_bound=1e-6, name="lying_L")
        y = rng.standard_normal(shape)
        gram = DiagonalGram(identity(shape), np.ones(shape)) if primal_data else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDiverged, match=r"dual iterate.*lying_L \(=1e-06\)"):
                jodefu_solve(identity(shape), lying, metric_norm("l221"), y,
                             SolverConfig(lambda_bar=1e-3, q_max=20, gram=gram))

    def test_non_finite_observation_rejected(self, rng):
        shape = (4, 4, 2)
        y = rng.standard_normal(shape)
        y[1, 2, 0] = np.nan
        y[3, 0, 1] = np.inf
        with pytest.raises(ValueError, match="observation holds 2 non-finite"):
            jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"), y,
                         SolverConfig(lambda_bar=1.0))

    def test_shape_validation(self, rng):
        shape = (4, 4, 2)
        with pytest.raises(ValueError, match="observation"):
            jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"),
                         np.zeros((2, 2)), SolverConfig(lambda_bar=1.0))

    def test_step_size_safety_ten_thousand_instances(self):
        # with certified bounds the iteration never overflows, whatever
        # random block plays the acquisition operator
        from conftest import random_block
        shape = (4, 4, 2)
        L = tv_op(shape)
        g = metric_norm("l221")
        rng = np.random.default_rng(40)
        for trial in range(10_000):
            A = random_block(rng, shape)
            if A.norm_bound <= 0:
                continue
            y = rng.standard_normal(A.output_shape)
            cfg = SolverConfig(lambda_bar=float(rng.uniform(1e-6, 1.0)), q_max=3,
                               cost_stride=3)
            xhat, _ = jodefu_solve(A, L, g, y, cfg)  # raises SolverDiverged on overflow
            assert np.all(np.isfinite(xhat))

    def test_trace_cost_stride(self, rng):
        # lambda_bar = 0.1 does not meet the stop tolerance within 30
        # iterations, so the solve runs to the cap
        shape = (6, 6, 1)
        y = rng.standard_normal(shape)
        cfg = SolverConfig(lambda_bar=0.1, q_max=30, cost_stride=10)
        _, trace = jodefu_solve(identity(shape), tv_op(shape), metric_norm("l221"), y, cfg)
        assert trace.cost_iters == [0, 10, 20, 29]
        assert trace.iterations == 30 and not trace.converged

    def test_cost_tracked_at_the_stopping_iterate(self, rng):
        shape = (6, 6, 1)
        y = rng.standard_normal(shape)
        A, L, g = identity(shape), tv_op(shape), metric_norm("l221")
        cfg = SolverConfig(lambda_bar=0.01, q_max=30, cost_stride=10)
        xhat, trace = jodefu_solve(A, L, g, y, cfg)
        assert trace.converged and trace.iterations < cfg.q_max
        assert trace.cost_iters == [0, 10, trace.iterations - 1]
        assert trace.costs[-1] == objective(A, L, g, cfg.resolved_lambda(), y, xhat)


class TestStart:
    """``SolverConfig.x0`` sets the start of the primal iterate."""

    @staticmethod
    def _problem():
        model = build_formation(formation_preset("cfa", 8, 8, 4))
        y = model.op.apply(synth_scene(SceneParams(8, 8, 4), seed=7).values)
        return model, tv_op(model.op.input_shape), metric_norm("l221"), y

    def test_no_start_is_the_adjoint_of_the_observation(self):
        model, L, g, y = self._problem()
        A = model.op
        cold, _ = jodefu_solve(A, L, g, y, SolverConfig(q_max=15))
        explicit, _ = jodefu_solve(A, L, g, y, SolverConfig(q_max=15, x0=A.adjoint_apply(y)))
        np.testing.assert_array_equal(cold.view(np.uint64), explicit.view(np.uint64))

    def test_explicit_start_is_rerun_identical_and_left_unwritten(self):
        model, L, g, y = self._problem()
        x0 = baseline_reconstruct(y, model)
        x0_before = x0.copy()
        cfg = SolverConfig(q_max=15, x0=x0)
        a, _ = jodefu_solve(model.op, L, g, y, cfg)
        b, _ = jodefu_solve(model.op, L, g, y, cfg)
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        np.testing.assert_array_equal(x0.view(np.uint64), x0_before.view(np.uint64))
        assert not np.shares_memory(a, x0)
        cold, _ = jodefu_solve(model.op, L, g, y, SolverConfig(q_max=15))
        assert not np.array_equal(a, cold)

    def test_integer_start_is_cast(self):
        shape = (4, 4, 2)
        y = np.arange(32.0).reshape(shape)
        A, L, g = identity(shape), tv_op(shape), metric_norm("l221")
        as_int, _ = jodefu_solve(A, L, g, y, SolverConfig(q_max=5, x0=np.ones(shape, int)))
        as_float, _ = jodefu_solve(A, L, g, y, SolverConfig(q_max=5, x0=np.ones(shape)))
        np.testing.assert_array_equal(as_int, as_float)

    def test_start_of_the_wrong_shape_rejected(self):
        model, L, g, y = self._problem()
        with pytest.raises(ValueError, match=r"x0 shape \(8, 8, 3\) does not match operator "
                                             r"input \(8, 8, 4\)"):
            jodefu_solve(model.op, L, g, y, SolverConfig(x0=np.zeros((8, 8, 3))))


class TestResidualReuse:
    @staticmethod
    def _problem():
        model = build_formation(formation_preset("mrca", 8, 8, 4))
        y = model.op.apply(synth_scene(SceneParams(8, 8, 4), seed=6).values)
        return model.op, tv_op(model.op.input_shape), metric_norm("l221"), y

    @pytest.mark.parametrize("stride", [None, 1, "q_max"])
    def test_operator_and_eval_counts(self, stride):
        A, L, g, y = self._problem()
        calls = {"A": 0, "At": 0, "L": 0, "Lt": 0, "eval": 0}

        def counted(key, fn):
            def call(*args):
                calls[key] += 1
                return fn(*args)
            return call

        counting_A = LinearOp(A.input_shape, A.output_shape, counted("A", A.apply),
                              counted("At", A.adjoint_apply), A.norm_bound, name=A.name)
        counting_L = LinearOp(L.input_shape, L.output_shape, counted("L", L.apply),
                              counted("Lt", L.adjoint_apply), L.norm_bound, name=L.name)
        counting_g = SimpleNamespace(eval=counted("eval", g.eval), prox_conj=g.prox_conj)
        q_max = 12
        cfg = SolverConfig(q_max=q_max, cost_stride=q_max if stride == "q_max" else stride)
        x, trace = jodefu_solve(counting_A, counting_L, counting_g, y, cfg)
        # the cost is tracked at the final iterate only, unless a stride is
        # set; A and A* each run once on the start (A*(y) is the start)
        costs = {None: 1, 1: q_max, "q_max": 2}[stride]
        assert len(trace.costs) == costs
        assert calls == {"A": q_max + 1, "At": q_max + 1, "L": q_max + costs,
                         "Lt": q_max, "eval": costs}
        np.testing.assert_array_equal(x, jodefu_solve(A, L, g, y, cfg)[0])

    @pytest.mark.parametrize("q_max", [1, 7, 20])
    def test_last_tracked_cost_is_the_objective(self, q_max):
        A, L, g, y = self._problem()
        cfg = SolverConfig(q_max=q_max)
        xhat, trace = jodefu_solve(A, L, g, y, cfg)
        assert trace.cost_iters[-1] == q_max - 1
        assert trace.costs[-1] == objective(A, L, g, cfg.resolved_lambda(), y, xhat)


class TestWorkingSet:
    """The memory a solve holds at its peak, in cubes, above its inputs.

    Measured at 64x64x4 with tracemalloc: 9.8 cubes on cassi with l221
    and 10.0 on the blurred mrca with s1l1, both on the dual-data update,
    and 9.3 on cassi with l221 on the primal-data update, which holds no
    data dual U and no A(X) or D buffer.  On the over-relaxed primal-data
    update the blurred mrca with s1l1 holds 12.9 cubes and multires with
    s1l1 13.1: the alias-domain data step keeps its inverted blocks (4.5
    resp. 4.25 cubes here) for the whole solve, and the relaxation holds
    the dual and its projection at once, one field more.  The kernel
    spectra at the aliases and the index maps belong to the model's
    ``AliasGram``, formed with the model.  Both peak in the s1l1
    projection; the data step's own spectra and products, 4.0 (mrca) and
    4.2 (multires) cubes at their peak (half a cube of it numpy's ufunc
    buffer, a fixed 64 kB), are freed before it.  The s1l1 projection
    reads the plane-major field in place; a copy of the field there holds
    two cubes more (11.8, 14.9 and 14.9 cubes).  The l221 bounds were set
    at the Loris-Verhoeven loop's 9.8 and the primal-data update's 9.3
    cubes plus half a cube, the s1l1 ones at their own 10.0, 12.9 and
    13.1 plus half a cube, so one more field-sized array (two cubes) alive
    at the peak fails, such as one more dual-sized buffer, an out-of-place
    s1l1 projection or a copy of the field in it, and so do the blocks
    formed all at once (29.0 cubes on mrca, 28.8 on multires) instead of
    in batches.
    """

    @pytest.mark.parametrize("name, kind, overrides, primal_data, bound", [
        ("cassi", "l221", {}, False, 10.3),
        ("mrca", "s1l1", {"hri_blur": "butterworth", "rho_b": 1.4}, False, 10.5),
        ("cassi", "l221", {}, True, 9.8),
        ("mrca", "s1l1", {"hri_blur": "butterworth", "rho_b": 1.4}, True, 13.4),
        ("multires", "s1l1", {}, True, 13.6),
    ])
    def test_peak_cubes(self, name, kind, overrides, primal_data, bound):
        shape = (64, 64, 4)
        model = build_formation(formation_preset(name, *shape, **overrides))
        A = model.op
        L, g = tv_op(shape), metric_norm(kind)
        y = A.apply(synth_scene(SceneParams(*shape), seed=3).values)
        gram = model.gram if primal_data else None
        jodefu_solve(A, L, g, y, SolverConfig(q_max=1, gram=gram))  # warm any lazy caches
        tracemalloc.start()
        try:
            jodefu_solve(A, L, g, y, SolverConfig(q_max=3, gram=gram))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (np.prod(shape) * 8) <= bound


class TestOneAdjointPerIteration:
    @pytest.mark.parametrize("q_max", [1, 7, 20])
    def test_one_gradient_adjoint_per_iteration(self, q_max):
        A, L, g, y = TestResidualReuse._problem()
        applies = 0

        def adjoint(w):
            nonlocal applies
            applies += 1
            return L.adjoint_apply(w)

        counting = LinearOp(L.input_shape, L.output_shape, L.apply, adjoint,
                            L.norm_bound, name=L.name)
        cfg = SolverConfig(q_max=q_max)
        x, _ = jodefu_solve(A, counting, g, y, cfg)
        assert applies == q_max
        reference = plain_cp_reference(A, L, g, y, cfg)
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


class TestAliasing:
    """Operators may return their input or a view of it; the solver updates
    only the arrays it allocated, never the caller's observation."""

    @staticmethod
    def _gradient(kind, shape):
        # The bounds of the two view-returning maps are certified but loose:
        # the solver may rely on a bound, never on its being the exact norm.
        field = shape + (2,)
        if kind == "tv":
            return tv_op(shape)
        if kind == "embedding":  # x in direction 0; the adjoint is a view of W
            def forward(x):
                w = np.zeros(field)
                w[..., 0] = x
                return w
            return LinearOp(shape, field, forward, lambda w: w[..., 0], 1.5, name=kind)
        # x in both directions, as a read-only view of x
        return LinearOp(shape, field, lambda x: np.broadcast_to(x[..., None], field),
                        lambda w: w.sum(axis=3), 2.0, name=kind)

    @pytest.mark.parametrize("primal_data", [False, True])
    @pytest.mark.parametrize("gradient", ["tv", "embedding", "broadcast"])
    def test_identity_leaves_observation_untouched(self, rng, gradient, primal_data):
        # the primal-data update writes its dual step into L's output, and
        # copies it first where that is read-only (broadcast)
        shape = (6, 5, 2)
        y = rng.standard_normal(shape)
        y_before = y.copy()
        A, L, g = identity(shape), self._gradient(gradient, shape), metric_norm("l221")
        gram = DiagonalGram(A, np.ones(shape)) if primal_data else None
        cfg = SolverConfig(lambda_bar=0.05, q_max=15, gram=gram)
        x, trace = jodefu_solve(A, L, g, y, cfg)
        np.testing.assert_array_equal(y.view(np.uint64), y_before.view(np.uint64))
        assert not np.shares_memory(x, y)
        cfg = dataclasses.replace(cfg, q_max=trace.iterations)  # the primal-data solves stop at 6
        if primal_data:
            reference = plain_resolvent_reference(A, L, g, y, cfg, RELAXATION)
        else:
            reference = plain_cp_reference(A, L, g, y, cfg)
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


class TestPrimalData:
    """The primal-data update, which the solve takes when it is handed
    AA* as ``SolverConfig.gram``: the data term's exact resolvent in the
    primal, the regularizer alone in the dual.  cfa and cassi hand it
    diag(AA*) (``DiagonalGram``), mrca (with and without the PAN blur)
    and multires their alias-domain blocks (``AliasGram``)."""

    DEVICES = {"cfa": ("cfa", {}), "cassi": ("cassi", {}), "mrca": ("mrca", {}),
               "mrca-blur": ("mrca", {"hri_blur": "butterworth", "rho_b": 1.4}),
               "multires": ("multires", {})}

    @classmethod
    def _problem(cls, device, seed=6):
        name, overrides = cls.DEVICES[device]
        model = build_formation(formation_preset(name, 8, 8, 4, **overrides))
        y = model.op.apply(synth_scene(SceneParams(8, 8, 4), seed=seed).values)
        cfg = SolverConfig(x0=baseline_reconstruct(y, model), gram=model.gram)
        return model.op, tv_op(model.op.input_shape), metric_norm("l221"), y, cfg

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_primal_step_is_the_dense_resolvent(self, device):
        # an L that maps every cube to 0 keeps Wt at 0, so each iteration is
        # the prox of the data term alone, (I + tau A*A) X~ = X + tau A*(y):
        # from X = X0, then from the relaxed X0 + rho (X~ - X0)
        A, L, g, y, cfg = self._problem(device)
        zero = zero_op(L.input_shape, L.output_shape)
        zero.norm_bound = 1.0  # the solver needs a positive bound; any one will do
        tau = cfg.gram.step / (cfg.lambda_bar * A.norm_bound ** 2)
        M = to_dense(A)

        def dense(x):
            return np.linalg.solve(np.eye(M.shape[1]) + tau * M.T @ M,
                                   x + tau * M.T @ y.ravel())

        first = dense(cfg.x0.ravel())
        second = dense(cfg.x0.ravel() + RELAXATION * (first - cfg.x0.ravel()))
        for q_max, expected in ((1, first), (2, second)):
            x, _ = jodefu_solve(A, zero, g, y, dataclasses.replace(cfg, q_max=q_max))
            assert np.linalg.norm(x.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)

    # the alias-domain devices: the shipped tiles at periods 4 (bt4pan, and
    # bt8pan with 8 bands) and 2 and 4 (multires ratio), on a square image
    # and on a 12x20 one, whose coarse grid at period 4 is 3x5: non-square,
    # of odd width, so that its mirrored aliases and cube outputs differ.
    # Ratio 3, the one whose 1/ratio is inexact, divides neither size and
    # runs on 12x6 alone
    ALIAS_DEVICES = {"mrca": ("mrca", 4, {}),
                     "mrca-blur": ("mrca", 4, {"hri_blur": "butterworth", "rho_b": 1.4}),
                     "mrca-bt8pan": ("mrca", 8, {"mask": "bt8pan"}),
                     "multires": ("multires", 4, {}),
                     "multires-ratio4": ("multires", 4, {"ratio": 4}),
                     "multires-ratio3": ("multires", 4, {"ratio": 3})}
    ALIAS_CASES = [pytest.param(device, size, id=f"size{i}-{device}")
                   for device in ALIAS_DEVICES if device != "multires-ratio3"
                   for i, size in enumerate([(8, 8), (12, 20)])]
    ALIAS_CASES.append(pytest.param("multires-ratio3", (12, 6), id="size2-multires-ratio3"))

    @classmethod
    def _alias_step(cls, device, size, rng):
        name, nk, overrides = cls.ALIAS_DEVICES[device]
        model = build_formation(formation_preset(name, *size, nk, **overrides))
        A = model.op
        return A, model.gram, rng.standard_normal(A.input_shape), rng.standard_normal(
            A.output_shape)

    @pytest.mark.parametrize("device, size", ALIAS_CASES)
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3])
    def test_alias_data_step_is_the_dense_prox(self, rng, device, size, tau):
        A, gram, x, y = self._alias_step(device, size, rng)
        M = to_dense(A)
        dense = np.linalg.solve(np.eye(M.shape[1]) + tau * M.T @ M,
                                x.ravel() + tau * M.T @ y.ravel())
        got = gram.data_step(tau, y)(x)
        assert got is x
        assert np.linalg.norm(got.ravel() - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("device, size", ALIAS_CASES)
    def test_alias_data_step_reads_and_writes_any_layout(self, rng, device, size):
        A, gram, x, y = self._alias_step(device, size, rng)
        expected = gram.data_step(3.0, y)(x.copy())
        for layout in ("F", "strided"):
            def arrange(a):
                if layout == "F":
                    return np.array(a, order="F")
                out = np.zeros(tuple(2 * n for n in a.shape))[(slice(None, None, 2),) * a.ndim]
                out[...] = a
                return out

            other = arrange(x)
            assert gram.data_step(3.0, arrange(y))(other) is other
            np.testing.assert_array_equal(other.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("device", ["mrca", "multires"])
    def test_alias_data_step_rejects_another_observation_size(self, rng, device):
        A, gram, _, y = self._alias_step(device, (8, 8), rng)
        with pytest.raises(ValueError, match=r"observation of shape .* does not match"):
            gram.data_step(1.0, np.append(y, 0.0))

    @pytest.mark.parametrize("name", ["mrca", "cfa", "cassi"])
    def test_data_step_rejects_a_transposed_observation(self, rng, name):
        # the same size, another shape: (16, 8) against (8, 16), or (19, 8)
        # against cassi's (8, 19)
        gram = build_formation(formation_preset(name, 8, 16, 4)).gram
        y = rng.standard_normal(gram.shape)
        with pytest.raises(ValueError, match=re.escape(
                f"observation of shape {y.T.shape} does not match the Gram's {gram.shape}")):
            gram.data_step(1.0, y.T)
        gram.data_step(1.0, y)  # its own shape passes

    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("q_max", [1, 7, 20])
    def test_iterates_are_the_textbook_ones(self, device, q_max):
        A, L, g, y, cfg = self._problem(device)
        cfg = dataclasses.replace(cfg, q_max=q_max)
        x, trace = jodefu_solve(A, L, g, y, cfg)
        assert trace.iterations == q_max
        reference = plain_resolvent_reference(A, L, g, y, cfg, RELAXATION)
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_relaxation_changes_the_speed_not_the_answer(self, device):
        # relaxed and unrelaxed textbook runs take different paths to one
        # minimizer.  After 2000 iterations they end 8.1e-14 apart on cassi
        # (1.2e-7 after 1000) and at most 3.2e-16 apart on the others, so
        # 1e-12 holds the shared end point; after 20 they still differ
        A, L, g, y, cfg = self._problem(device)
        for q_max, apart in ((20, True), (2000, False)):
            cfg = dataclasses.replace(cfg, q_max=q_max)
            plain = plain_resolvent_reference(A, L, g, y, cfg)
            relaxed = plain_resolvent_reference(A, L, g, y, cfg, RELAXATION)
            gap = np.linalg.norm(relaxed - plain) / np.linalg.norm(plain)
            assert (gap > 1e-6) if apart else (gap <= 1e-12)

    def test_data_fit_start_runs_past_the_first_iteration(self):
        # the cfa baseline fits the data exactly, so the first resolvent
        # step from it barely moves; the dual's first half step, taken from
        # Wt = 0 before it, keeps that from reading as convergence
        A, L, g, y, cfg = self._problem("cfa")
        assert np.linalg.norm(A.apply(cfg.x0) - y) <= 1e-12 * np.linalg.norm(y)
        x, trace = jodefu_solve(A, L, g, y, dataclasses.replace(cfg, q_max=1000))
        assert trace.converged and trace.iterations > 1
        assert np.linalg.norm(x - cfg.x0) > 1e-3 * np.linalg.norm(cfg.x0)

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_true_fixed_point_stops_at_once(self, device):
        # X0 = 0 fits y = 0 and L(X0) = 0, so it is the minimizer: Wt stays
        # 0, the step is 0 <= PRIMAL_TOL * 0, and the solve returns X0 after
        # one iteration
        A, L, g, _, cfg = self._problem(device)
        y, x0 = np.zeros(A.output_shape), np.zeros(A.input_shape)
        x, trace = jodefu_solve(A, L, g, y, dataclasses.replace(cfg, x0=x0))
        assert trace.converged and trace.iterations == 1
        assert trace.costs == [0.0]
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_each_block_runs_once_per_iteration(self, device):
        A, L, g, y, cfg = self._problem(device)
        calls = dict.fromkeys(("A", "At", "L", "Lt", "prox", "eval"), 0)

        def counted(key, fn):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        counting_A = LinearOp(A.input_shape, A.output_shape, counted("A", A.apply),
                              counted("At", A.adjoint_apply), A.norm_bound, name=A.name)
        counting_L = LinearOp(L.input_shape, L.output_shape, counted("L", L.apply),
                              counted("Lt", L.adjoint_apply), L.norm_bound, name=L.name)
        counting_g = SimpleNamespace(eval=counted("eval", g.eval),
                                     prox_conj=counted("prox", g.prox_conj))
        calls["data"] = 0
        gram = SimpleNamespace(shape=cfg.gram.shape, step=cfg.gram.step, data_step=lambda tau, y:
                               counted("data", cfg.gram.data_step(tau, y)))
        q_max = 12
        x, trace = jodefu_solve(counting_A, counting_L, counting_g, y,
                                dataclasses.replace(cfg, q_max=q_max, gram=gram))
        # the start is the baseline, so no A*(y); the cost runs A, L and eval
        # once, at the returned iterate, and the Gram check one data step, A
        # and A* before the first.  The Gram takes every data step itself, so
        # the solve's A and A* run in none of them
        assert trace.iterations == q_max
        assert calls == {"A": 2, "At": 1, "data": q_max + 1, "L": q_max + 1, "Lt": q_max,
                         "prox": q_max, "eval": 1}

    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("q_max", [1, 7, 20, SolverConfig().q_max])
    def test_final_cost_is_the_objective(self, device, q_max):
        # the tracked cost at the returned iterate is the objective there
        A, L, g, y, cfg = self._problem(device)
        cfg = dataclasses.replace(cfg, q_max=q_max)
        xhat, trace = jodefu_solve(A, L, g, y, cfg)
        assert trace.cost_iters[-1] == trace.iterations - 1
        assert trace.costs[-1] == pytest.approx(
            objective(A, L, g, cfg.resolved_lambda(), y, xhat), rel=1e-12, abs=0)

    @pytest.mark.parametrize("device", list(DEVICES))
    @pytest.mark.parametrize("q_max, converged", [(10, False), (1000, True)])
    def test_deterministic_bitwise(self, device, q_max, converged):
        # at the cap and at the stop alike (cfa stops at 23, mrca at 44, the
        # blurred mrca at 41, multires at 20 and the noiseless cassi at 234),
        # a rerun ends at the same iteration with the same bits
        A, L, g, y, cfg = self._problem(device)
        cfg = dataclasses.replace(cfg, q_max=q_max)
        a, trace_a = jodefu_solve(A, L, g, y, cfg)
        b, trace_b = jodefu_solve(A, L, g, y, cfg)
        assert trace_a.converged == converged
        assert (trace_a.iterations < q_max) == converged
        assert trace_a == trace_b
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("bad, message", [
        (build_formation(formation_preset("cfa", 8, 12, 4)).gram,
         r"gram of shape \(8, 12\) \(operator output \(8, 8\)\): the shapes differ"),
        (build_formation(formation_preset("multires", 8, 8, 4)).gram,
         r"gram of shape \(128,\) \(operator output \(8, 8\)\): the shapes differ"),
        (np.ones((8, 8)), r"gram of type ndarray is not a Gram: it needs shape, step and "
                          r"data_step\(tau, y\)"),
    ], ids=["shape", "alias-shape", "bare-array"])
    def test_bad_gram_rejected_before_the_first_iteration(self, bad, message):
        A, L, g, y, cfg = self._problem("cfa")

        def never(x):
            raise AssertionError("an operator ran")

        untouchable = LinearOp(A.input_shape, A.output_shape, never, never, A.norm_bound,
                               name=A.name)
        with pytest.raises(ValueError, match=message):
            jodefu_solve(untouchable, L, g, y, dataclasses.replace(cfg, gram=bad))

    @pytest.mark.parametrize("e, message", [
        (np.ones((8, 9)), r"gram of shape \(8, 9\) \(operator output \(8, 8\)\): "
                          r"the shapes differ"),
        (np.full((8, 8), np.nan), r"gram of shape \(8, 8\) \(operator output "
                                  r"\(8, 8\)\) holds 64 non-finite samples"),
        (np.full((8, 8), np.inf), "holds 64 non-finite samples"),
        (np.where(np.eye(8) > 0, -1.0, 1.0), r"gram of shape \(8, 8\) \(operator "
                                            r"output \(8, 8\)\) holds 8 negative samples"),
    ], ids=["shape", "nan", "inf", "negative"])
    def test_bad_diagonal_rejected_at_construction(self, e, message):
        A = self._problem("cfa")[0]
        with pytest.raises(ValueError, match=message):
            DiagonalGram(A, e)

    @pytest.mark.parametrize("device, other", [
        ("cfa", "cfa"), ("mrca", "mrca-blur"), ("mrca-blur", "mrca")])
    @pytest.mark.parametrize("lambda_bar", [1e-8, 1e-3, 10.0])
    def test_gram_of_another_operator_rejected_before_the_first_iteration(
            self, device, other, lambda_bar):
        # a Gram of the operator's shape that is not its AA*: twice cfa's
        # diagonal, or the blocks of mrca with and without the PAN blur
        A, L, g, y, cfg = self._problem(device)
        gram = self._problem(other)[4].gram
        if isinstance(gram, DiagonalGram):
            gram = DiagonalGram(A, 2.0 * gram.diagonal)

        def never(w):
            raise AssertionError("L ran")

        untouchable = LinearOp(L.input_shape, L.output_shape, never, never, L.norm_bound,
                               name=L.name)
        cfg = dataclasses.replace(cfg, lambda_bar=lambda_bar)
        with pytest.raises(ValueError, match=f"gram is not AA\\* of {A.name}"):
            jodefu_solve(A, untouchable, g, y, dataclasses.replace(cfg, gram=gram))
        jodefu_solve(A, L, g, y, dataclasses.replace(cfg, q_max=2))  # its own Gram passes

    @pytest.mark.parametrize("device", ["mrca", "mrca-blur"])
    @pytest.mark.parametrize("q_max", [7, 1000])
    def test_fortran_ordered_observation_gives_the_same_bits(self, device, q_max):
        # the data step reads the observation in any layout
        A, L, g, y, cfg = self._problem(device)
        cfg = dataclasses.replace(cfg, q_max=q_max)
        a, trace_a = jodefu_solve(A, L, g, y, cfg)
        b, trace_b = jodefu_solve(A, L, g, np.asfortranarray(y), cfg)
        assert trace_a.iterations == trace_b.iterations
        assert trace_a.costs == trace_b.costs
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("device", ["cfa", "mrca"])
    def test_tiny_lambda_fits_the_data(self, device):
        A, L, g, y, cfg = self._problem(device)
        xhat, _ = jodefu_solve(A, L, g, y, dataclasses.replace(cfg, lambda_bar=1e-12))
        assert np.linalg.norm(A.apply(xhat) - y) <= 1e-8 * np.linalg.norm(y)


@functools.lru_cache(maxsize=None)
def desk_row(formation: str, method: str, seed: int = 11):
    """One desk experiment row: 64x64x4, 250 iterations, sigma = 0.01,
    through run_pipeline; the desk experiment runs scene seed 11.  Returns
    the pipeline result and, for a jodefu method, the arguments and the
    trace of its solve."""
    solves = []

    def recording(*args):
        x, trace = jodefu_solve(*args)
        solves.append((args, trace))
        return x, trace

    spec = PipelineSpec(formation=formation_preset(formation, 64, 64, 4, noise_sigma=0.01),
                        method=method, iters=250, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "jodefu_solve", recording)
        result = run_pipeline(spec)
    return result, (solves[0] if solves else None)


def desk_psnr(formation: str, method: str, seed: int = 11) -> float:
    """PSNR of one desk experiment row (see ``desk_row``)."""
    return desk_row(formation, method, seed)[0].report.psnr


class TestGramlessMrca:
    """The path the mrca benchmark workloads time: a solve handed no Gram
    takes the dual-data update, so each iteration applies mrca's
    alias-domain A and A*.  It runs the iterations and reaches the
    estimate of the same solve on the paper's composition of the public
    blocks, at the same norm bound."""

    @pytest.mark.parametrize("blur", [False, True])
    @pytest.mark.parametrize("kind", ["l221", "s1l1"])
    def test_matches_the_solve_on_the_composition(self, kind, blur):
        overrides = {"hri_blur": "butterworth", "rho_b": 1.4} if blur else {}
        preset = formation_preset("mrca", 32, 32, 4, **overrides)
        A = build_formation(preset).op
        composed = mrca_composition(preset)
        composed.norm_bound = A.norm_bound
        L, g = tv_op(A.input_shape), metric_norm(kind)
        y = add_gaussian_noise(A.apply(synth_scene(SceneParams(32, 32, 4), seed=3).values),
                               0.01, seed=4)
        x, trace = jodefu_solve(A, L, g, y)
        expected, expected_trace = jodefu_solve(composed, L, g, y)
        assert trace.iterations == expected_trace.iterations
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


class TestDeskQuality:
    """The jodefu rows of the desk experiment score no lower than the PSNR
    that Chambolle-Pock reached in all 250 iterations, before the solve
    stopped on its residuals, less 0.005 dB, so neither a solver change nor
    an early stop can quietly lose desk quality: with one tolerance of 3e-3
    on both residuals, cfa jodefu-v1 stopped 0.006 dB low.

    The cfa jodefu-v2 floor is the primal-data update's own PSNR,
    25.323 dB.  The dual-data update's 25.432 dB at 250 iterations sat on
    an early PSNR peak, 0.13 dB above that row's minimizer of 25.2973 dB
    (``TestNearTheMinimizer``), which no converging solve holds."""

    FLOOR_DB = {  # PSNR measured through run_pipeline, 250 iterations
        ("mrca", "jodefu-v1"): 26.59940073761167,
        ("mrca", "jodefu-v2"): 26.778146662825133,
        ("multires", "jodefu-v1"): 27.791725177236888,
        ("multires", "jodefu-v2"): 28.22904244545817,
        ("cfa", "jodefu-v1"): 25.411606421794414,
        ("cfa", "jodefu-v2"): 25.32302668665196,  # primal-data update (class docstring)
        ("cassi", "jodefu-v1"): 24.66453447259869,
        ("cassi", "jodefu-v2"): 25.09418256736129,
    }

    @pytest.mark.parametrize("formation, method", list(FLOOR_DB))
    def test_psnr_at_least_the_replaced_rule(self, formation, method):
        assert desk_psnr(formation, method) >= self.FLOOR_DB[formation, method] - 0.005


class TestStop:
    """The solve stops once its primal residual is within ``PRIMAL_TOL``
    and, on the dual-data update, its data-dual residual within
    ``DUAL_TOL``; ``q_max`` is a cap.  On the dual-data update one
    tolerance of 2e-3 on both kept the mrca and multires desk rows running
    for up to 239 iterations, and stopped cfa jodefu-v1 at seed 3
    0.0094 dB below its 250-iteration PSNR.  Every desk row now takes the
    over-relaxed primal-data update and stops on the primal test alone:
    cfa and cassi at 81-110 iterations on the desk's scene (96-136
    unrelaxed), mrca and multires at 30-58 (37-71 unrelaxed)."""

    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
    def test_desk_rows_stop_before_the_cap(self, formation, method):
        _, (_, trace) = desk_row(formation, method)
        assert trace.converged and trace.iterations < 150

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
    def test_at_most_three_thousandths_of_a_db_below_the_full_textbook_run(self, formation,
                                                                          method, seed):
        result, (args, _) = desk_row(formation, method, seed)
        reference = result.reference
        primal_data = args[4].gram is not None
        textbook = plain_resolvent_reference if primal_data else plain_cp_reference
        x = textbook(*args)
        full = psnr(reference, DataCube(x, rho=reference.rho))
        # The full run is the unrelaxed one.  A stop may read higher than it
        # on a row whose PSNR peaks before it settles: on the dual-data
        # update multires jodefu-v2 at seed 3 stopped at iteration 103,
        # 0.0072 dB above it.  The relaxed cfa and cassi rows read
        # -0.0085 dB (cassi jodefu-v2 at seed 5, which stops at 143) to
        # +0.22 dB (cfa jodefu-v2 at seed 2, 0.30 dB above its minimizer);
        # ``TestNearTheMinimizer`` holds them against the minimizer itself.
        # The mrca and multires rows keep the bounds of the dual-data update
        # they left; they read -0.0023 dB (mrca jodefu-v1 at seed 1) to
        # +0.0062 dB (multires jodefu-v2 at seed 2).
        low, high = (-0.01, 0.3) if formation in ("cfa", "cassi") else (-0.003, 0.01)
        assert low <= result.report.psnr - full <= high


class TestNearTheMinimizer:
    """Every jodefu row of the desk experiment, on the desk's scene and on
    scene seeds 1-5, ends no more than 0.03 dB below the PSNR of its
    minimizer.  The minimizer is the iterate after 4000 iterations of
    ``plain_resolvent_reference``, which has no stop; its PSNR moved by at
    most 0.00016 dB (cfa, cassi: ``BENCH_23.json``) and 0.000035 dB (mrca,
    multires, both at c = 0.02: ``BENCH_24.json``) over the last 2000 of
    them.  The over-relaxed primal-data update ends -0.0175 dB (cassi
    jodefu-v2 at seed 5) to +0.30 dB (cfa jodefu-v2 at seed 2) from it on
    cfa and cassi, and -0.0023 dB (mrca jodefu-v1 at seed 1) to
    +0.0062 dB (multires jodefu-v2 at seed 2) on mrca and multires
    (``BENCH_25.json``); unrelaxed it ended -0.0175 to +0.33 dB and
    -0.0027 to +0.0065 dB from it.  The dual-data update ended
    0.14-1.45 dB below it on every cassi row at its cap of 250."""

    CONVERGED_DB = {  # PSNR after 4000 textbook iterations, through run_pipeline's solve
        ("cfa", "jodefu-v1", 1): 22.734834360417757,
        ("cfa", "jodefu-v2", 1): 22.88373692821898,
        ("cassi", "jodefu-v1", 1): 23.178102518543437,
        ("cassi", "jodefu-v2", 1): 23.601328925406776,
        ("cfa", "jodefu-v1", 2): 25.338434591437284,
        ("cfa", "jodefu-v2", 2): 23.722195402782184,
        ("cassi", "jodefu-v1", 2): 23.261971931632583,
        ("cassi", "jodefu-v2", 2): 23.586358393426202,
        ("cfa", "jodefu-v1", 3): 23.63938697143955,
        ("cfa", "jodefu-v2", 3): 23.956301525223672,
        ("cassi", "jodefu-v1", 3): 24.553788278231533,
        ("cassi", "jodefu-v2", 3): 24.87068533946056,
        ("cfa", "jodefu-v1", 4): 25.434684528192587,
        ("cfa", "jodefu-v2", 4): 25.898148093032056,
        ("cassi", "jodefu-v1", 4): 25.07899487368428,
        ("cassi", "jodefu-v2", 4): 25.480676263074802,
        ("cfa", "jodefu-v1", 5): 25.905887438662138,
        ("cfa", "jodefu-v2", 5): 26.158754930747584,
        ("cassi", "jodefu-v1", 5): 25.861273039405944,
        ("cassi", "jodefu-v2", 5): 26.138476484631408,
        ("cfa", "jodefu-v1", 11): 25.50077091373568,
        ("cfa", "jodefu-v2", 11): 25.297270818978458,
        ("cassi", "jodefu-v1", 11): 24.914473560916065,
        ("cassi", "jodefu-v2", 11): 25.239222121164985,
        ("mrca", "jodefu-v1", 1): 25.021117936864528,
        ("mrca", "jodefu-v2", 1): 25.3553410764381,
        ("multires", "jodefu-v1", 1): 26.162186434207637,
        ("multires", "jodefu-v2", 1): 26.775043307216638,
        ("mrca", "jodefu-v1", 2): 25.128114656232082,
        ("mrca", "jodefu-v2", 2): 25.3242903536483,
        ("multires", "jodefu-v1", 2): 25.62182621071485,
        ("multires", "jodefu-v2", 2): 25.897268620631376,
        ("mrca", "jodefu-v1", 3): 26.996881604778853,
        ("mrca", "jodefu-v2", 3): 27.5652319654553,
        ("multires", "jodefu-v1", 3): 28.453635419350626,
        ("multires", "jodefu-v2", 3): 29.135768310515616,
        ("mrca", "jodefu-v1", 4): 27.528734091389843,
        ("mrca", "jodefu-v2", 4): 28.123719994892777,
        ("multires", "jodefu-v1", 4): 28.406269508395173,
        ("multires", "jodefu-v2", 4): 28.987158630968075,
        ("mrca", "jodefu-v1", 5): 28.98830345490939,
        ("mrca", "jodefu-v2", 5): 29.22707335307589,
        ("multires", "jodefu-v1", 5): 29.59482383751222,
        ("multires", "jodefu-v2", 5): 30.01575083344834,
        ("mrca", "jodefu-v1", 11): 26.59940683580573,
        ("mrca", "jodefu-v2", 11): 26.778641960514058,
        ("multires", "jodefu-v1", 11): 27.7917339496282,
        ("multires", "jodefu-v2", 11): 28.229002621991334,
    }

    @pytest.mark.parametrize("formation, method, seed", list(CONVERGED_DB))
    def test_default_solve_within_three_hundredths_of_a_db(self, formation, method, seed):
        converged = self.CONVERGED_DB[formation, method, seed]
        assert desk_psnr(formation, method, seed) >= converged - 0.03


class TestAboveTheFloor:
    """Every jodefu row of the desk experiment scores at least 1 dB above
    the interpolation baseline of its formation, on the desk's scene and
    on scene seeds 1-5.  Solves from A*(y) ended far below it on cfa and
    cassi; Loris-Verhoeven from the baseline cleared it on cfa jodefu-v1
    at seed 3 by only 0.87 dB, and Chambolle-Pock by 1.11 dB, the smallest
    margin of all 48 rows."""

    MARGIN_DB = 1.0

    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
    def test_jodefu_clears_the_baseline(self, formation, method):
        floor = desk_psnr(formation, "baseline")
        assert desk_psnr(formation, method) >= floor + self.MARGIN_DB

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("formation", ["mrca", "multires", "cfa", "cassi"])
    @pytest.mark.parametrize("method", ["jodefu-v1", "jodefu-v2"])
    def test_jodefu_clears_the_baseline_on_other_scenes(self, formation, method, seed):
        floor = desk_psnr(formation, "baseline", seed)
        assert desk_psnr(formation, method, seed) >= floor + self.MARGIN_DB


class TestLambdaSweep:
    """The regularization-weight axis of ``scripts/parameter_sweep.py``
    (mrca jodefu-v1, 64x64x4, 250 iterations, seed 11) scores no lower than
    the Loris-Verhoeven iteration did, less 0.005 dB, at every weight."""

    FLOOR_DB = {  # PSNR of the Loris-Verhoeven iteration through run_sweep
        1e-4: 25.93410061930055,
        3e-4: 26.412222694232568,
        1e-3: 26.596775514553897,
        3e-3: 26.439234247281043,
        1e-2: 25.412843102033627,
        1e-1: 21.711413790249367,
    }

    def test_psnr_at_least_the_replaced_iteration(self):
        base = PipelineSpec(formation=formation_preset("mrca", 64, 64, 4, noise_sigma=0.01),
                            method="jodefu-v1", iters=250, seed=11)
        reports = run_sweep(base, "lambda_bar", list(self.FLOOR_DB))
        for (lambda_bar, floor), report in zip(self.FLOOR_DB.items(), reports):
            assert report.psnr >= floor - 0.005, lambda_bar


class TestPresets:
    def test_v1(self):
        assert jodefu_presets("jodefu-v1") == ReconstructionPreset("l221", "identity", 0.0)

    def test_v2_defaults(self):
        p = jodefu_presets("jodefu-v2")
        assert p.norm_kind == "s1l1"
        assert p.hri_blur == "butterworth"
        assert p.rho_b == pytest.approx(1.4)
        assert 1.0 <= p.rho_b <= 1.5

    @pytest.mark.parametrize("name", ["v3", "v1", "JODEFU-V1", "jodefu_v2", "baseline"])
    def test_unknown_rejected(self, name):
        with pytest.raises(ValueError, match="preset"):
            jodefu_presets(name)
