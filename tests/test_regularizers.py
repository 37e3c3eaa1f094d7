from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import to_dense

from mrcakit.operators import adjoint_dot_test, power_iteration_norm
from mrcakit.regularizers import (
    TV_NORM_BOUND,
    g_eval,
    metric_norm,
    prox_conj,
    tv_adjoint,
    tv_forward,
    tv_op,
)
from mrcakit.regularizers import _gram2


def random_field(seed, shape=(4, 4, 2, 2), scale=1.0):
    return np.random.default_rng(seed).standard_normal(shape) * scale


class TestTvForward:
    def test_constant_cube_zero_interior_boundary_carries_value(self):
        # out-of-range neighbors count as zero, so the first row/column
        # holds the raw constant while the interior vanishes
        x = np.full((3, 3, 1), 2.0)
        w = tv_forward(x)
        np.testing.assert_array_equal(w[1:, :, 0, 0], 0.0)
        np.testing.assert_array_equal(w[0, :, 0, 0], 2.0)
        np.testing.assert_array_equal(w[:, 1:, 0, 1], 0.0)
        np.testing.assert_array_equal(w[:, 0, 0, 1], 2.0)

    def test_1x2_hand_example(self):
        w = tv_forward(np.array([[[0.0], [1.0]]]))
        np.testing.assert_array_equal(w[0, :, 0, 1], [0.0, 1.0])

    def test_linearity(self, rng):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        x, y = rng.standard_normal((2, 5, 6, 3))
        lhs = tv_forward(a[0] * x + b[0] * y)
        rhs = a[0] * tv_forward(x) + b[0] * tv_forward(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# degenerate single-row and single-column cubes, and an odd size
EDGE_SHAPES = [(1, 5, 2), (4, 1, 3), (5, 7, 2)]


def np_diff_forward(x):
    """Reference gradient built from np.diff with a zero row prepended."""
    return np.stack([np.diff(x, axis=axis, prepend=0.0) for axis in (0, 1)], axis=3)


def np_diff_adjoint(w):
    """Reference adjoint: minus np.diff with a zero row appended, per direction."""
    parts = [-np.diff(w[..., axis], axis=axis, append=0.0) for axis in (0, 1)]
    return parts[0] + parts[1]


# the shapes on which the plane-major field is checked against a C-order
# copy: square, degenerate, one band and non-square
LAYOUT_SHAPES = [(16, 16, 3), *EDGE_SHAPES, (5, 4, 1), (6, 10, 4)]


class TestTvAdjoint:
    @pytest.mark.parametrize("shape", LAYOUT_SHAPES)
    def test_adjoint_identity(self, shape):
        # on the plane-major fields the op returns (TestPlaneMajorField)
        op = tv_op(shape)
        assert adjoint_dot_test(op, trials=20, seed=0) < 1e-10

    def test_zero_field_zero_cube(self):
        assert not tv_adjoint(np.zeros((4, 4, 2, 2))).any()

    @pytest.mark.parametrize("shape", [(8, 8, 1), *EDGE_SHAPES])
    def test_gram_matches_dense_oracle(self, rng, shape):
        op = tv_op(shape)
        dense = to_dense(op)
        x = rng.standard_normal(shape)
        via_op = tv_adjoint(tv_forward(x))
        via_mat = (dense.T @ dense @ x.ravel()).reshape(shape)
        np.testing.assert_allclose(via_op, via_mat, atol=1e-12)

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    def test_bitwise_equal_to_np_diff_reference(self, rng, shape):
        x = rng.standard_normal(shape)
        w = rng.standard_normal(shape + (2,))
        for got, ref in ((tv_forward(x), np_diff_forward(x)),
                         (tv_adjoint(w), np_diff_adjoint(w))):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def same_bits(a, b):
    """Bitwise equality, the sign of zero included."""
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("shape", LAYOUT_SHAPES)
class TestPlaneMajorField:
    """``tv_forward`` returns an (ni, nj, nk, 2) view of a plane-major
    (2, nk, ni, nj) array; every consumer gives the same bits for it and for
    a C-order copy of it."""

    @staticmethod
    def _fields(shape):
        w = tv_forward(np.random.default_rng(sum(shape)).standard_normal(shape))
        c = np.array(w, order="C")
        assert c.flags.c_contiguous and not np.shares_memory(c, w)
        return w, c

    def test_forward_planes_are_contiguous(self, shape):
        w, _ = self._fields(shape)
        assert w.shape == shape + (2,)
        assert w.transpose(3, 2, 0, 1).flags.c_contiguous

    def test_adjoint(self, shape):
        w, c = self._fields(shape)
        same_bits(tv_adjoint(w), tv_adjoint(c))

    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    def test_g_eval(self, shape, kind):
        w, c = self._fields(shape)
        assert g_eval(kind, w) == g_eval(kind, c)

    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    @pytest.mark.parametrize("out", ["new", "like", "c_order", "input"])
    def test_prox_conj(self, shape, kind, out):
        # lam at the median entry size: some blocks are clipped, some not
        w, c = self._fields(shape)
        lam = float(np.median(np.abs(w)))
        results = []
        for field in (w, c):
            if out == "new":
                got = prox_conj(kind, field, lam)
            else:
                target = {"like": np.empty_like(field), "c_order": np.empty(field.shape),
                          "input": field}[out]
                got = prox_conj(kind, field, lam, out=target)
                assert got is target
            results.append(got)
        same_bits(*results)


class TestTvNormBound:
    def test_constant_value(self):
        assert TV_NORM_BOUND == pytest.approx(np.sqrt(8.0))
        assert tv_op((4, 4, 1)).norm_bound == TV_NORM_BOUND

    def test_power_iteration_below_bound_64(self):
        est = power_iteration_norm(tv_op((64, 64, 1)), iters=400, seed=1)
        assert est <= TV_NORM_BOUND

    def test_asymptotic_tightness_128(self):
        est = power_iteration_norm(tv_op((128, 128, 4)), iters=300, seed=2)
        assert 0.99 * TV_NORM_BOUND <= est <= TV_NORM_BOUND


class TestGEval:
    def test_single_entry_all_kinds(self):
        w = np.zeros((3, 3, 2, 2))
        w[1, 2, 0, 1] = -4.0
        for kind in ("l221", "l111", "s1l1"):
            assert g_eval(kind, w) == pytest.approx(4.0, abs=1e-12)

    def test_rank_one_blocks_s1l1_equals_l221(self, rng):
        # per-pixel blocks u v^T have one singular value = Frobenius norm
        u = rng.standard_normal((3, 3, 4, 1))
        v = rng.standard_normal((3, 3, 1, 2))
        w = u * v
        assert g_eval("s1l1", w) == pytest.approx(g_eval("l221", w), rel=1e-12)

    def test_norm_ordering(self):
        for seed in range(10):
            w = random_field(seed)
            l111, l221, s1l1 = (g_eval(k, w) for k in ("l111", "l221", "s1l1"))
            assert l111 >= l221 - 1e-12
            assert l221 <= s1l1 + 1e-12  # nuclear dominates Frobenius
            assert s1l1 <= np.sqrt(2.0) * l221 + 1e-12

    def test_zero_field(self):
        for kind in ("l221", "l111", "s1l1"):
            assert g_eval(kind, np.zeros((2, 2, 3, 2))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["l221", "l111", "s1l1"]),
           st.floats(0.0, 100.0), st.integers(0, 2 ** 31))
    def test_positive_homogeneity(self, kind, alpha, seed):
        w = random_field(seed)
        assert g_eval(kind, alpha * w) == pytest.approx(
            alpha * g_eval(kind, w), rel=1e-10, abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            g_eval("l212", np.zeros((1, 1, 1, 2)))


@pytest.mark.parametrize("nk", [1, 4])
def test_l221_matches_squared_field_reference(nk):
    # the block norms come from one contraction, summed in another order
    # than the squared-field reference: 8 terms, a few ulps at most
    w = random_field(nk, shape=(6, 5, nk, 2), scale=2.0)
    norms = np.sqrt(np.sum(w ** 2, axis=(2, 3)))
    assert g_eval("l221", w) == pytest.approx(np.sum(norms), rel=2e-15)
    reference = w * (1.0 / np.maximum(norms / 0.9, 1.0))[:, :, None, None]
    np.testing.assert_allclose(prox_conj("l221", w, 0.9), reference, rtol=2e-15, atol=0)


def s1l1_field(seed, nk):
    """(2, 5, nk, 2) field: random blocks on row 0, near-rank-1 blocks on
    row 1 (second singular value about 1e-7 of the first)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((2, 5, nk, 2))
    w[1] = (rng.standard_normal((5, nk, 1)) * rng.standard_normal((5, 1, 2))
            + 1e-7 * rng.standard_normal((5, nk, 2)))
    return w


def svd_oracle(w):
    """Per-pixel singular values of the (nk, 2) blocks, padded to two."""
    s = np.linalg.svd(w, compute_uv=False)
    padded = np.zeros(w.shape[:2] + (2,))
    padded[..., :s.shape[-1]] = s
    return padded


def s1l1_prox_oracle(w, lam):
    """Per-pixel projection onto the spectral-norm ball through the SVD."""
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u @ (np.minimum(s, lam)[..., None] * vt)


@pytest.mark.parametrize("nk", [1, 2, 3, 4, 7, 8])
class TestS1l1AgainstSvd:
    def test_g_eval(self, nk):
        w = s1l1_field(nk, nk)
        per_pixel = [g_eval("s1l1", w[i:i + 1, j:j + 1]) for i, j in np.ndindex(w.shape[:2])]
        oracle = svd_oracle(w).sum(axis=-1)
        np.testing.assert_allclose(per_pixel, oracle.ravel(), rtol=1e-13)
        assert g_eval("s1l1", w) == pytest.approx(oracle.sum(), rel=1e-13)

    def test_prox(self, nk):
        lam = 1.0
        w = s1l1_field(nk, nk)
        np.testing.assert_allclose(prox_conj("s1l1", w, lam), s1l1_prox_oracle(w, lam),
                                   atol=1e-12)

    def test_prox_below_the_small_singular_values(self, nk):
        # every singular value is clipped to lam, the ~1e-7 small ones
        # included, which scales them by lam / s: the small values must be
        # right to about 1e-13, which the cancelling route
        # sqrt(0.5 * (tr - disc)) misses by ~1e-8, an error of 1e-3 lam or more
        lam = 1e-9
        w = s1l1_field(nk, nk)
        assert svd_oracle(w)[..., :min(nk, 2)].min() > 10 * lam
        np.testing.assert_allclose(prox_conj("s1l1", w, lam), s1l1_prox_oracle(w, lam),
                                   rtol=0, atol=1e-5 * lam)


def s1l1_prox_reference(w, lam):
    """The s1l1 projection in its strided form: Gramians and Cauchy-Binet
    minors read from the w[..., 0] / w[..., 1] views, np.where clipping,
    both output directions formed before either is written."""
    b1, b2 = w[..., 0], w[..., 1]
    g11, g22, g12 = (np.einsum("...k,...k->...", a, b) for a, b in ((b1, b1), (b2, b2), (b1, b2)))
    det = np.zeros(w.shape[:-2])
    for i in range(w.shape[-2] - 1):
        minors = b1[..., i, None] * b2[..., i + 1:] - b1[..., i + 1:] * b2[..., i, None]
        det += np.einsum("...k,...k->...", minors, minors)
    mu1 = 0.5 * (g11 + g22 + np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu2 = np.where(mu1 > 0.0, det / np.where(mu1 > 0.0, mu1, 1.0), 0.0)
        xi1, xi2 = np.sqrt(mu1), np.sqrt(mu2)
        c1 = np.where(xi1 > lam, lam / xi1, 1.0)
        c2 = np.where(xi2 > lam, lam / xi2, 1.0)
    gap = mu1 - mu2
    safe = gap > 1e-12 * np.maximum(mu1, 1e-300)
    beta = np.where(safe, (c1 - c2) / np.where(safe, gap, 1.0), 0.0)
    alpha = c1 - beta * mu1
    m00, m11, m01 = alpha + beta * g11, alpha + beta * g22, beta * g12
    return np.stack([b1 * m00[..., None] + b2 * m01[..., None],
                     b1 * m01[..., None] + b2 * m11[..., None]], axis=-1)


def reference_field(kind, nk, seed=0):
    """(6, 5, nk, 2) fields of one block structure, with a radius lam that
    puts them where the name says."""
    rng = np.random.default_rng(seed)
    shape = (6, 5, nk, 2)
    if kind == "random":
        w = rng.standard_normal(shape)
        return w, float(np.median(svd_oracle(w)[..., 0]))
    if kind == "rank1":
        w = rng.standard_normal((6, 5, nk, 1)) * rng.standard_normal((6, 5, 1, 2))
        return w, float(np.median(svd_oracle(w)[..., 0]))
    if kind == "equal":
        # s * Q with orthonormal columns; a 1 x 2 block has equal singular
        # values only when it is zero
        if nk == 1:
            return np.zeros(shape), 1.0
        q = np.linalg.qr(rng.standard_normal(shape))[0]
        w = q * rng.uniform(0.5, 2.0, (6, 5, 1, 1))
        return w, 1.0
    w = rng.standard_normal(shape)
    norms = svd_oracle(w)[..., 0]
    return w, float(2.0 * norms.max() if kind == "inside" else 0.5 * norms.min())


@pytest.mark.parametrize("nk", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("kind", ["random", "rank1", "equal", "inside", "outside"])
def test_s1l1_matches_strided_reference(kind, nk):
    w, lam = reference_field(kind, nk)
    reference = s1l1_prox_reference(w, lam)
    if kind == "inside":
        np.testing.assert_array_equal(reference, w)
    if kind == "outside":
        np.testing.assert_allclose(svd_oracle(reference)[..., 0], lam, rtol=1e-13)
    atol = 1e-14 * np.abs(reference).max()
    np.testing.assert_allclose(prox_conj("s1l1", w, lam), reference, rtol=0, atol=atol)
    assert prox_conj("s1l1", w, lam, out=w) is w
    np.testing.assert_allclose(w, reference, rtol=0, atol=atol)


def cauchy_binet_det(w):
    """Per-pixel Gramian determinants as the sum of the squared 2x2
    minors (Cauchy-Binet), the form one Gram-Schmidt step replaced."""
    b1, b2 = w[..., 0], w[..., 1]
    det = np.zeros(w.shape[:2])
    for i, j in combinations(range(w.shape[2]), 2):
        det += (b1[..., i] * b2[..., j] - b1[..., j] * b2[..., i]) ** 2
    return det


def det_oracle(w):
    s = svd_oracle(w)
    return (s[..., 0] * s[..., 1]) ** 2


def edge_field(case, nk, seed=0):
    """(4, 5, nk, 2) blocks where one Gram-Schmidt step could break."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((4, 5, nk, 2))
    direction, _, scale = case.partition("*")
    if direction == "near_rank1":
        return (rng.standard_normal((4, 5, nk, 1)) * rng.standard_normal((4, 5, 1, 2))
                + 1e-7 * rng.standard_normal((4, 5, nk, 2)))
    if direction == "both":
        return w * float(scale)
    w[..., {"first": 0, "second": 1}[direction]] *= float(scale)
    return w


class TestGramSchmidtDeterminant:
    """``_gram2``'s determinant g11 * ||b2 - (g12/g11) b1||^2 against the
    SVD oracle (s1 s2)^2, beside the Cauchy-Binet minors it replaced.

    g11 = 0, a zero first direction or one whose squares underflow, is
    guarded: g12/g11 is read as 0 there, so the determinant is
    0 * ||b2||^2 = 0, where an unguarded 0/0 would give NaN.  The tests
    run with division by zero and invalid operations raising."""

    @pytest.mark.parametrize("nk", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", ["first*0", "second*0"])
    def test_zero_direction(self, case, nk):
        w = edge_field(case, nk)
        with np.errstate(divide="raise", invalid="raise"):
            det = _gram2(w)[4]
            per_pixel = [g_eval("s1l1", w[i:i + 1, j:j + 1]) for i, j in np.ndindex(4, 5)]
            projected = prox_conj("s1l1", w, 1.0)
        assert np.all(det == 0.0)
        np.testing.assert_allclose(per_pixel, svd_oracle(w)[..., 0].ravel(), rtol=1e-15)
        np.testing.assert_allclose(projected, s1l1_prox_oracle(w, 1.0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("nk", [2, 4, 8])
    @pytest.mark.parametrize("case", ["first*1e-150", "second*1e-150"])
    def test_direction_norm_ratio(self, case, nk):
        # s2 / s1 ~ 1e-150: the residual stays of its own size whichever
        # direction is the pivot (observed at most 2.3e-15 here, the
        # minors 2.1e-15)
        w = edge_field(case, nk)
        with np.errstate(divide="raise", invalid="raise"):
            det = _gram2(w)[4]
        oracle = det_oracle(w)
        assert np.all(oracle > 0.0)
        np.testing.assert_allclose(det, oracle, rtol=1e-14, atol=0)
        lam = float(np.median(svd_oracle(w)[..., 0]))  # clips the large values only
        np.testing.assert_allclose(prox_conj("s1l1", w, lam), s1l1_prox_oracle(w, lam),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("nk", [2, 4, 8])
    @pytest.mark.parametrize("case", ["first*1e-310", "second*1e-310", "both*1e-310",
                                      "first*1e-160"])
    def test_subnormal_entries(self, case, nk):
        # 1e-310 entries are subnormal and their squares underflow to 0
        # (g11 = 0 where it is the first direction); with 1e-160 entries
        # g11 is itself subnormal, a few bits wide, and the determinant of
        # about 1e-320 carries a few subnormal ulps of error, as the minors
        # do (observed at most 21 and 4 ulps)
        w = edge_field(case, nk)
        with np.errstate(divide="raise", invalid="raise"):
            det = _gram2(w)[4]
            value = g_eval("s1l1", w)
            projected = prox_conj("s1l1", w, 0.5)
        np.testing.assert_allclose(det, det_oracle(w), rtol=0, atol=1e-321)
        assert value == pytest.approx(svd_oracle(w).sum(), rel=1e-13)
        np.testing.assert_allclose(projected, s1l1_prox_oracle(w, 0.5), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("nk", [2, 3, 4, 7, 8])
    @pytest.mark.parametrize("case", ["near_rank1", "first*1"])
    def test_as_accurate_as_the_minors(self, case, nk):
        # near-rank-1 blocks (s2 ~ 1e-7 s1) lose eps * s1/s2 on s2 either
        # way: observed 2.3e-9 to 4.2e-7 on the determinant, within 1.25x
        # of the minors' error on every nk
        w = edge_field(case, nk)
        oracle = det_oracle(w)
        error = np.max(np.abs(_gram2(w)[4] - oracle) / oracle)
        minors = np.max(np.abs(cauchy_binet_det(w) - oracle) / oracle)
        assert error <= 2.0 * minors + 1e-14

    def test_one_band_is_rank_one(self):
        # a (1 x 2) block has no second singular value: the residual of
        # b2 against b1 is rounding, a determinant of eps^2 g11 g22
        w = edge_field("first*1", 1)
        _, g11, g22, _, det = _gram2(w)
        assert np.all(det <= 1e-30 * g11 * g22)


KINDS = ["l221", "l111", "s1l1"]


class TestWeightedProjection:
    """``prox_conj(..., weight=rho)`` returns rho times the projection, the
    relaxed solver's rho W~, with rho folded into a map the projection
    multiplies by anyway (l111 scales the clipped field)."""

    @staticmethod
    def _field(nk):
        # plane-major, as the solver holds its dual; lam at the median
        # entry size, so some blocks are clipped and some not
        w = tv_forward(np.random.default_rng(nk).standard_normal((6, 5, nk)))
        return w, float(np.median(np.abs(w)))

    @pytest.mark.parametrize("nk", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_one_is_the_projection_bitwise(self, kind, nk):
        w, lam = self._field(nk)
        expected = prox_conj(kind, w, lam)
        same_bits(prox_conj(kind, w, lam, weight=1.0), expected)
        same_bits(metric_norm(kind).prox_conj(w, lam, out=w, weight=1.0), expected)

    @pytest.mark.parametrize("out", ["new", "input"])
    @pytest.mark.parametrize("nk", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_weight_scales_the_projection(self, kind, nk, out):
        rho = 1.3
        w, lam = self._field(nk)
        expected = rho * prox_conj(kind, w, lam)
        got = prox_conj(kind, w, lam, out=w if out == "input" else None, weight=rho)
        assert (got is w) == (out == "input")
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)
        if kind == "l111":
            same_bits(got, expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_relaxed_dual_step(self, kind):
        # Wt + rho (P(S) - Wt), as written, against (1 - rho) Wt + rho P(S)
        # with the weighted projection, as the solver forms it
        rho = 1.3
        s, lam = self._field(4)
        wt = np.random.default_rng(7).uniform(-lam, lam, s.shape)
        expected = wt + rho * (prox_conj(kind, s, lam) - wt)
        got = wt * (1.0 - rho) + prox_conj(kind, s, lam, weight=rho)
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)


class TestProxConj:
    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    def test_inside_ball_unchanged(self, kind):
        w = random_field(3, scale=0.01)
        np.testing.assert_allclose(prox_conj(kind, w, 1.0), w, atol=1e-14)

    def test_l221_radial_projection(self):
        lam = 0.5
        w = np.zeros((1, 1, 2, 2))
        w[0, 0] = [[0.6, 0.0], [0.0, 0.8]]  # block norm 1.0 = 2*lam
        out = prox_conj("l221", w, lam)
        np.testing.assert_allclose(out, w / 2.0, atol=1e-14)

    def test_l111_is_clipping(self, rng):
        w = random_field(5, scale=3.0)
        np.testing.assert_array_equal(prox_conj("l111", w, 1.2), np.clip(w, -1.2, 1.2))

    def test_moreau_identity_soft_threshold(self):
        # prox of lam*|.|_1 = w - prox_conj(w) must equal scalar soft
        # thresholding, elementwise
        lam = 0.7
        for seed in range(10):
            w = random_field(seed, scale=2.0)
            via_moreau = w - prox_conj("l111", w, lam)
            soft = np.sign(w) * np.maximum(np.abs(w) - lam, 0.0)
            np.testing.assert_allclose(via_moreau, soft, atol=1e-12)

    def test_s1l1_clips_singular_values(self, rng):
        lam = 0.8
        w = random_field(11, shape=(3, 3, 4, 2), scale=2.0)
        out = prox_conj("s1l1", w, lam)
        sv = np.linalg.svd(out, compute_uv=False)
        assert sv.max() <= lam * (1 + 1e-12)
        # directions preserved: scaling back blocks with small sv unchanged
        small = np.linalg.svd(w, compute_uv=False).max(axis=-1) <= lam
        np.testing.assert_allclose(out[small], w[small], atol=1e-12)

    @pytest.mark.parametrize("lam, expected", [(1.0, np.eye(2)), (4.0, 3.0 * np.eye(2))])
    def test_s1l1_equal_singular_values(self, lam, expected):
        # a block 3 I has no singular gap: both values are clipped together
        w = np.zeros((1, 1, 2, 2))
        w[0, 0] = 3.0 * np.eye(2)
        np.testing.assert_allclose(prox_conj("s1l1", w, lam)[0, 0], expected, atol=1e-14)

    def test_s1l1_three_directions_rejected(self, rng):
        # the closed form covers two directions; a third must not be dropped
        with pytest.raises(ValueError, match=r"\(2, 3, 4, 3\)"):
            prox_conj("s1l1", rng.standard_normal((2, 3, 4, 3)), 1.0)

    def test_s1l1_matches_svd_oracle(self):
        lam = 0.6
        for seed in range(10):
            w = random_field(seed, shape=(4, 3, 5, 2))
            ni, nj, nk, nm = w.shape
            u, s, vt = np.linalg.svd(w.reshape(-1, nk, nm), full_matrices=False)
            oracle = (u @ (np.minimum(s, lam)[..., None] * vt)).reshape(w.shape)
            np.testing.assert_allclose(prox_conj("s1l1", w, lam), oracle, atol=1e-12)

    def test_idempotent_l111_bitwise(self):
        for seed in range(5):
            w = random_field(seed, scale=3.0)
            once = prox_conj("l111", w, 0.9)
            np.testing.assert_array_equal(prox_conj("l111", once, 0.9), once)

    @pytest.mark.parametrize("kind,rtol", [("l221", 5e-16), ("s1l1", 1e-14)])
    def test_idempotent_within_rounding(self, kind, rtol):
        # the re-measured block norms sit within rounding of the ball
        # radius, so the second pass rescales by at most a few ulps
        for seed in range(5):
            w = random_field(seed, scale=3.0)
            once = prox_conj(kind, w, 0.9)
            twice = prox_conj(kind, once, 0.9)
            np.testing.assert_allclose(twice, once, atol=1e-15, rtol=rtol)

    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    def test_nonexpansive(self, kind):
        rng = np.random.default_rng(77)
        for _ in range(20):
            a = rng.standard_normal((3, 3, 2, 2)) * 2
            b = rng.standard_normal((3, 3, 2, 2)) * 2
            da = prox_conj(kind, a, 0.5) - prox_conj(kind, b, 0.5)
            assert np.linalg.norm(da) <= np.linalg.norm(a - b) * (1 + 1e-12)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            prox_conj("l221", np.zeros((1, 1, 1, 2)), 0.0)

    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, kind, lam):
        with pytest.raises(ValueError, match="finite"):
            prox_conj(kind, np.ones((1, 1, 2, 2)), lam)

    @pytest.mark.parametrize("nk", [1, 4])
    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    def test_in_place_bitwise_equal(self, kind, nk):
        # s1l1 reads both input directions for each output direction, so
        # writing one before the other is read would show here
        w = random_field(nk, shape=(5, 4, nk, 2), scale=2.0)
        expected = prox_conj(kind, w, 0.9)
        buffer = np.full_like(w, np.nan)
        assert prox_conj(kind, w, 0.9, out=buffer) is buffer
        assert prox_conj(kind, w, 0.9, out=w) is w
        for got in (buffer, w):
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kind", ["l221", "l111", "s1l1"])
    def test_in_place_on_a_single_pixel(self, kind):
        # the plane-major view of a (1, 1, 1, 2) field is already C-ordered,
        # so s1l1 reads its planes in place and must read both directions
        # before writing over either
        w = random_field(3, shape=(1, 1, 1, 2), scale=2.0)
        expected = prox_conj(kind, w, 0.1)
        assert prox_conj(kind, w, 0.1, out=w) is w
        np.testing.assert_array_equal(w.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("out", [np.empty((5, 4, 2, 2)), np.empty((5, 4, 2, 2), np.float32)])
    def test_out_must_match_the_field(self, out):
        with pytest.raises(ValueError, match="out"):
            prox_conj("l221", random_field(0, shape=(5, 4, 3, 2)), 0.9, out=out)


class TestMetricNorm:
    def test_bundles_eval_and_prox(self):
        g = metric_norm("l221")
        w = random_field(0)
        assert g.eval(w) == g_eval("l221", w)
        expected = prox_conj("l221", w, 0.3)
        np.testing.assert_array_equal(g.prox_conj(w, 0.3), expected)
        assert g.prox_conj(w, 0.3, out=w) is w
        np.testing.assert_array_equal(w, expected)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metric_norm("l2")
