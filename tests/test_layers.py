"""Layer nodes: spec'd shape/value cases, brute-force oracles, gradient checks, and each node against the
independent float64 reference layers of `reference.py`."""

import contextlib
import gc
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.special import erf

import reference as R
from gldn import layers as L
from gldn import tensor as T
from gldn.errors import DimensionError, NumericsError
from gldn.tensor import Tensor, backward, grad_check


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def conv_params(c_out, c_in, rng=None, dtype=np.float64):
    if rng is None:
        w = np.zeros((c_out, c_in, 3, 3, 3))
    else:
        w = rng.normal(scale=0.3, size=(c_out, c_in, 3, 3, 3))
    return L.Conv3dParams(
        weight=Tensor(w.astype(dtype), requires_grad=True),
        bias=Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True),
    )


def bn_state(c, dtype=np.float64, training=True):
    """gamma 1, beta 0, running mean 0 and running variance 1."""
    return L.BatchNorm3dState(
        gamma=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
        beta=Tensor(np.zeros(c, dtype=dtype), requires_grad=True),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
        training=training,
    )


def conv3d_bruteforce(x, w, b):
    """Nested-loop cross-correlation oracle, zero padding 1, stride 1."""
    B, Cin, D, H, W = x.shape
    Cout = w.shape[0]
    out = np.zeros((B, Cout, D, H, W), dtype=np.float64)
    for bb in range(B):
        for co in range(Cout):
            for d in range(D):
                for h in range(H):
                    for ww in range(W):
                        acc = 0.0
                        for ci in range(Cin):
                            for i in range(3):
                                for j in range(3):
                                    for k in range(3):
                                        dd, hh, kk = d + i - 1, h + j - 1, ww + k - 1
                                        if 0 <= dd < D and 0 <= hh < H and 0 <= kk < W:
                                            acc += x[bb, ci, dd, hh, kk] * w[co, ci, i, j, k]
                        out[bb, co, d, h, ww] = acc + b[co]
    return out


class TestConv3d:
    """The node's conv on spec'd cases, and the reference conv against the nested-loop oracle."""

    def test_zero_kernel_annihilates(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4, 4, 4)).astype(np.float32))
        out = L.conv_relu_bn_pool(x, conv_params(3, 2, dtype=np.float32), bn_state(3, np.float32, training=False))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_ones_kernel_counts_neighbors(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2), dtype=np.float64))
        p = conv_params(1, 1)
        p.weight.data[:] = 1.0
        out = L.conv_relu_bn_pool(x, p, bn_state(1, training=False))
        # every voxel of a 2x2x2 cube has all 8 cube voxels in its 3^3 window; eval BatchNorm divides by sqrt(1 + EPS)
        np.testing.assert_allclose(out.data, np.full((1, 1, 1, 1, 1), 8.0 / np.sqrt(1.0 + L.EPS)), rtol=1e-15)

    def test_paper_channel_shape(self):
        x = Tensor(np.zeros((2, 16, 8, 12, 8), dtype=np.float32))
        out = L.conv_relu_bn_pool(x, conv_params(32, 16, dtype=np.float32), bn_state(32, np.float32, training=False))
        assert out.shape == (2, 32, 4, 6, 4)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="conv_relu_bn_pool channel"):
            L.conv_relu_bn_pool(Tensor(np.zeros((1, 3, 4, 4, 4))), conv_params(2, 4), bn_state(2))

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            B, Cin, Cout = (int(v) for v in rng.integers(1, 3, size=3))
            D, H, W = (int(v) for v in rng.integers(1, 6, size=3))
            x = rng.normal(size=(B, Cin, D, H, W))
            p = conv_params(Cout, Cin, rng)
            p.bias.data[:] = rng.normal(size=Cout)
            out = R.conv3d(Tensor(x), p)
            want = conv3d_bruteforce(x, p.weight.data, p.bias.data)
            np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(1, 2, 3, 3, 3)))
        p = conv_params(2, 2, rng)

        def f(x, w, b):
            return (R.conv3d(x, L.Conv3dParams(w, b)) * 0.7).sum()

        for res in grad_check(f, [x, p.weight, p.bias], tol=1e-6):
            assert res.passed, res


def bound_for_slab_depth(monkeypatch, x_shape, itemsize, depth):
    """Set the chunk byte bound so each slab of an input of `x_shape` holds `depth` conv planes, `depth` / 2
    pooled ones."""
    B, Cin, _, H, W = x_shape
    monkeypatch.setattr(L, "_CHUNK_BYTES", depth * 27 * Cin * B * H * W * itemsize)


def conv_slabs(monkeypatch, fn):
    """The conv depth ranges [d0, d1) that `fn()` computes, in order: a recorded forward's, then its
    backward's."""
    seen = []
    conv_slab = L._conv_slab

    def recording(wm, xp, d0, d1):
        seen.append((d0, d1))
        return conv_slab(wm, xp, d0, d1)

    with monkeypatch.context() as m:
        m.setattr(L, "_conv_slab", recording)
        fn()
    return seen


def block_results(block, x, conv, bn, coeff):
    """Output, the grads of x, the kernel, the bias, gamma and beta for the loss sum(out * coeff), and the
    running statistics after the forward."""
    out = block(x, conv, bn)
    backward((out * coeff).sum())
    grads = [None if t.grad is None else t.grad.copy() for t in (x, conv.weight, conv.bias, bn.gamma, bn.beta)]
    return [out.data, *grads, bn.running_mean.copy(), bn.running_var.copy()]


def cnn_tolerance(dtype):
    """The node against the float64 reference: float32 normalizes float32 pooled voxels and sums float32 GEMMs."""
    return 1e-12 if dtype == np.float64 else 2e-6


BLOCK_RESULTS = ("out", "dx", "dw", "db", "dgamma", "dbeta", "mean", "var")


def assert_block_matches_the_reference(got, want, dtype):
    assert len(got) == len(want)
    for name, a, ref in zip(BLOCK_RESULTS, got, want):
        if a is None:
            continue
        assert a.dtype == dtype, name
        R.assert_close([a], [ref], cnn_tolerance(dtype), name)


class TestConv3dSlabs:
    """The node's slab im2col/col2im path against the reference, across slab edges."""

    @pytest.mark.parametrize("c_in", [1, 5])
    def test_float32_matches_tap_reference(self, monkeypatch, c_in):
        rng = np.random.default_rng(20 + c_in)
        x, conv, bn = cnn_block_case(rng, np.float32, True, shape=(3, c_in, 10, 4, 6))
        coeff = rng.normal(size=(3, 4, 5, 2, 3))
        want = block_results(R.cnn_block, *R.float64_copies(x, conv, bn), coeff)
        bound_for_slab_depth(monkeypatch, x.shape, 4, 4)
        got = []
        seen = conv_slabs(monkeypatch, lambda: got.extend(block_results(L.conv_relu_bn_pool, x, conv, bn, coeff)))
        assert [d1 - d0 for d0, d1 in seen] == [4, 4, 2] * 2
        assert_block_matches_the_reference(got, want, np.float32)

    def test_grad_check_across_slab_boundary(self, monkeypatch):
        rng = np.random.default_rng(30)
        x, conv, bn = cnn_block_case(rng, np.float64, True, shape=(2, 2, 6, 4, 2), c_out=3)
        bound_for_slab_depth(monkeypatch, x.shape, 8, 4)
        assert conv_slabs(monkeypatch, lambda: L.conv_relu_bn_pool(x, conv, bn)) == [(0, 4), (4, 6)]
        coeff = rng.normal(size=(2, 3, 3, 2, 1))

        def f(x, w, b, gamma, beta):
            s = L.BatchNorm3dState(gamma, beta, bn.running_mean, bn.running_var, training=True)
            return (L.conv_relu_bn_pool(x, L.Conv3dParams(w, b), s) * coeff).sum()

        for res in grad_check(f, [x, conv.weight, conv.bias, bn.gamma, bn.beta], tol=1e-6):
            assert res.passed, res

    def test_constant_input_skips_dx(self):
        rng = np.random.default_rng(40)
        x, conv, bn = cnn_block_case(rng, np.float32, True, shape=(2, 1, 6, 4, 2), c_out=3)
        x = Tensor(x.data)
        coeff = rng.normal(size=(2, 3, 3, 2, 1))
        want = block_results(R.cnn_block, *R.float64_copies(x, conv, bn), coeff)
        out = L.conv_relu_bn_pool(x, conv, bn)
        assert out._node.backward_fn(np.ones(out.shape, np.float32))[0] is None
        backward((out * coeff).sum())
        assert x.grad is None
        got = [out.data, None, conv.weight.grad, conv.bias.grad, bn.gamma.grad, bn.beta.grad]
        assert_block_matches_the_reference(got, want[:6], np.float32)


class TestMaxPool3d:
    """The reference pool, the oracle of the node's window max and first-argmax routing, and the node's
    extent check."""

    def test_constant_volume(self):
        out = R.maxpool3d(Tensor(np.full((1, 2, 4, 4, 4), 3.5, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2, 2), 3.5))

    def test_window_max(self):
        x = Tensor(np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2))
        assert R.maxpool3d(x).item() == 8.0

    def test_shape_contract(self):
        assert R.maxpool3d(Tensor(np.zeros((1, 1, 4, 4, 4)))).shape == (1, 1, 2, 2, 2)

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError, match="divisible"):
            L.conv_relu_bn_pool(Tensor(np.zeros((1, 1, 3, 4, 4))), conv_params(1, 1), bn_state(1))

    def test_invariant_to_intra_window_permutation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4, 4))
        base = R.maxpool3d(Tensor(x)).data
        cube = x.reshape(1, 1, 2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(-1, 8)
        shuffled = cube.copy()
        for row in shuffled:
            rng.shuffle(row)
        back = (
            shuffled.reshape(1, 1, 2, 2, 2, 2, 2, 2)
            .transpose(0, 1, 2, 5, 3, 6, 4, 7)
            .reshape(1, 1, 4, 4, 4)
        )
        np.testing.assert_array_equal(R.maxpool3d(Tensor(back)).data, base)

    def test_grad_routes_to_first_argmax(self):
        data = np.zeros((1, 1, 2, 2, 2))
        data[0, 0, 0, 0, 0] = 5.0
        data[0, 0, 1, 1, 1] = 5.0  # tie: first flat index wins
        x = t64(data)
        backward(R.maxpool3d(x).sum())
        want = np.zeros_like(data)
        want[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        # well-separated values so the finite-difference step cannot flip the argmax
        vals = rng.permutation(np.arange(64, dtype=np.float64)).reshape(1, 1, 4, 4, 4)
        x = t64(vals)
        (res,) = grad_check(lambda t: (R.maxpool3d(t) * 0.3).sum(), [x], tol=1e-6)
        assert res.passed, res

    @pytest.mark.parametrize(
        "dtype, record, signed_zeros",
        [
            pytest.param(
                dtype,
                record,
                signed_zeros,
                id=np.dtype(dtype).name
                + ("" if record else "-no_grad")
                + ("" if signed_zeros else "-plus_zeros"),
            )
            for signed_zeros in (True, False)
            for record in (True, False)
            for dtype in (np.float32, np.float64)
        ],
    )
    def test_matches_transposed_reference(self, dtype, record, signed_zeros):
        rng = np.random.default_rng(3)
        ints = rng.integers(-3, 4, size=(2, 3, 4, 6, 8)).astype(dtype)  # most windows tie
        if signed_zeros:
            # tied zeros differ in sign; the pool may keep either, as values they are equal
            data = np.where(ints > 0, ints, -0.0)
            data[0, 0, 0, 0, 1] = 0.0
            zeros = np.signbit(data[data == 0])
            assert zeros.any() and not zeros.all()
        else:
            # every zero is +0.0, as after eval BatchNorm
            data = np.maximum(ints, 0.0)
            assert (data == 0).any() and not np.signbit(data).any()
        x = Tensor(data, requires_grad=True)
        with contextlib.nullcontext() if record else T.no_grad():
            out = R.maxpool3d(x)
        g = rng.normal(size=out.shape).astype(dtype)
        g[..., 0] = -0.0
        want_out, want_dx = maxpool_transposed(data, g)
        pairs = [(out.data, want_out)]
        if record:
            backward((out * Tensor(g)).sum())
            pairs.append((x.grad, want_dx))
        else:
            assert out._node is None
        for got, want in pairs:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            np.testing.assert_array_equal(got, want)


def maxpool_transposed(x, g):
    """Max pool by numpy's argmax over a copied 8-axis transpose: (output, dx for `g`).

    x is copied into an 8-axis transpose whose last axis holds each window;
    argmax keeps the first index on ties, and dx scatters g back through it.
    """
    B, C, D, H, W = x.shape
    d2, h2, w2 = D // 2, H // 2, W // 2
    cube = x.reshape(B, C, d2, 2, h2, 2, w2, 2)
    flat = np.ascontiguousarray(cube.transpose(0, 1, 2, 4, 6, 3, 5, 7)).reshape(B, C, d2, h2, w2, 8)
    arg = flat.argmax(axis=-1)[..., None]
    out = np.take_along_axis(flat, arg, axis=-1)[..., 0]
    dflat = np.zeros_like(flat)
    np.put_along_axis(dflat, arg, g[..., None], axis=-1)
    dcube = dflat.reshape(B, C, d2, h2, w2, 2, 2, 2).transpose(0, 1, 2, 5, 3, 6, 4, 7)
    return np.ascontiguousarray(out), np.ascontiguousarray(dcube).reshape(B, C, D, H, W)


class TestBatchNorm3d:
    """The reference BatchNorm: its affine map and its running-statistics update."""

    def test_train_normalizes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(2, 3, 4, 4, 4)))
        out = R.batchnorm3d(x, bn_state(3)).data
        mean = out.mean(axis=(0, 2, 3, 4))
        var = out.var(axis=(0, 2, 3, 4))
        assert np.all(np.abs(mean) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_affine(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2, 4, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3, 4), keepdims=True)) / x.std(axis=(0, 2, 3, 4), keepdims=True)
        s = bn_state(2)
        s.gamma.data[:] = 2.0
        s.beta.data[:] = 3.0
        out = R.batchnorm3d(Tensor(x), s).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3, 4)), 3.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3, 4)), 2.0, rtol=1e-4)

    def test_eval_identity_stats(self):
        x = Tensor(np.random.default_rng(2).normal(size=(1, 2, 2, 2, 2)))
        out = R.batchnorm3d(x, bn_state(2, training=False))
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_running_stats_update(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5.0, size=(4, 1, 4, 4, 4))
        s = bn_state(1)
        R.batchnorm3d(Tensor(x), s)
        n = x.size
        want_mean = 0.1 * x.mean()
        want_var = 0.9 + 0.1 * x.var() * n / (n - 1)
        np.testing.assert_allclose(s.running_mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(s.running_var, want_var, rtol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(2, 2, 2, 2, 2)))
        s = bn_state(2)
        coeff = np.random.default_rng(5).normal(size=(2, 2, 2, 2, 2))

        def f(x, g, b):
            return (R.batchnorm3d(x, L.BatchNorm3dState(g, b, np.zeros(2), np.ones(2), training=True)) * coeff).sum()

        for res in grad_check(f, [x, s.gamma, s.beta], tol=1e-4):
            assert res.passed, res


def cnn_block_case(rng, dtype, training, shape=(2, 2, 6, 4, 6), c_out=4):
    """x and one CNN block's parameters: gamma < 0 on channels 0 and 2, where the pool keeps each window's
    smallest relu and most windows tie at 0, and a bias of -3 on channel 1, where most windows are all 0."""
    c_in = shape[1]
    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    conv = L.Conv3dParams(
        Tensor(rng.normal(scale=0.3, size=(c_out, c_in, 3, 3, 3)).astype(dtype), requires_grad=True),
        Tensor(rng.normal(scale=0.2, size=c_out).astype(dtype), requires_grad=True),
    )
    conv.bias.data[1] = -3.0
    gamma = rng.uniform(0.5, 2.0, c_out) * np.where(np.arange(c_out) % 2, 1, -1)
    bn = L.BatchNorm3dState(
        gamma=Tensor(gamma.astype(dtype), requires_grad=True),
        beta=Tensor(rng.normal(size=c_out).astype(dtype), requires_grad=True),
        running_mean=rng.normal(size=c_out).astype(dtype),
        running_var=rng.uniform(0.5, 2.0, c_out).astype(dtype),
        training=training,
    )
    return x, conv, bn


class TestConvReluBnPool:
    """The one-node CNN block against the reference's conv, relu, BatchNorm and pool, composed in float64."""

    def one_pooled_depth_per_slab(self, monkeypatch, x):
        B, c_in, _, H, W = x.shape
        monkeypatch.setattr(L, "_CHUNK_BYTES", 2 * 27 * c_in * B * H * W * x.data.itemsize)

    def assert_ties_at_zero(self, x, conv):
        y = R.relu(R.conv3d(x, conv)).data
        B, C, D, H, W = y.shape
        zeros = (y.reshape(B, C, D // 2, 2, H // 2, 2, W // 2, 2) == 0).sum(axis=(3, 5, 7))  # per window
        assert (zeros[:, 1] == 8).mean() > 0.3  # channel 1: windows of relu zeros only
        assert (zeros[:, 0] >= 2).mean() > 0.3  # gamma < 0: the kept minimum is a tie at 0

    @pytest.mark.parametrize("slabs", [1, 3])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composed_block(self, monkeypatch, dtype, training, slabs):
        x, conv, bn = cnn_block_case(np.random.default_rng(71), dtype, training)
        self.assert_ties_at_zero(x, conv)
        coeff = np.random.default_rng(72).normal(size=(2, 4, 3, 2, 3))
        want = block_results(R.cnn_block, *R.float64_copies(x, conv, bn), coeff)
        if slabs == 3:
            self.one_pooled_depth_per_slab(monkeypatch, x)
        got = []
        seen = conv_slabs(monkeypatch, lambda: got.extend(block_results(L.conv_relu_bn_pool, x, conv, bn, coeff)))
        assert len(seen) == 2 * slabs
        assert_block_matches_the_reference(got, want, dtype)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_grad_check_across_slabs(self, monkeypatch, training):
        rng = np.random.default_rng(73)
        x, conv, bn = cnn_block_case(rng, np.float64, training)
        self.assert_ties_at_zero(x, conv)
        self.one_pooled_depth_per_slab(monkeypatch, x)
        coeff = rng.normal(size=(2, 4, 3, 2, 3))

        def f(x, w, b, gamma, beta):
            s = L.BatchNorm3dState(gamma, beta, bn.running_mean, bn.running_var, training)
            return (L.conv_relu_bn_pool(x, L.Conv3dParams(w, b), s) * coeff).sum()

        for res in grad_check(f, [x, conv.weight, conv.bias, bn.gamma, bn.beta], tol=1e-6):
            assert res.passed, res

    def test_repeated_backward_accumulates(self):
        x, conv, bn = cnn_block_case(np.random.default_rng(74), np.float64, True)
        out = L.conv_relu_bn_pool(x, conv, bn)
        loss = (out * np.random.default_rng(75).normal(size=out.shape)).sum()
        leaves = (x, conv.weight, conv.bias, bn.gamma, bn.beta)
        backward(loss)
        once = [t.grad.copy() for t in leaves]
        backward(loss)
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2 * g)

    def overflow_case(self, big):
        """A one-channel block whose conv output is `big` at one voxel in eight (each window's first) and 1
        elsewhere: the centre tap alone and a zero bias."""
        x = np.ones((1, 1, 4, 4, 4), np.float32)
        x[:, :, ::2, ::2, ::2] = big
        w = np.zeros((1, 1, 3, 3, 3), np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        conv = L.Conv3dParams(Tensor(w, requires_grad=True), Tensor(np.zeros(1, np.float32), requires_grad=True))
        return Tensor(x), conv, bn_state(1, np.float32)

    def test_non_finite_batch_statistics_raise_before_the_running_ones_change(self):
        # 3e19: float32 holds the variance (9.8e37) but not the squares, so float32 statistics overflow
        with np.errstate(over="ignore"):
            assert np.isinf(np.square(np.float32(3e19)))
        x, conv, bn = self.overflow_case(3e19)
        out = L.conv_relu_bn_pool(x, conv, bn)  # float64 statistics
        xhat = (3e19 - 3.75e18) / np.sqrt((8 * 3e19**2 + 56) / 64 - 3.75e18**2)  # every window keeps 3e19
        np.testing.assert_allclose(out.data, xhat, rtol=1e-6)
        # 1e20: the variance itself (1.1e39) is past float32's 3.4e38
        x, conv, bn = self.overflow_case(1e20)
        with pytest.raises(NumericsError, match="statistics in forward op conv_relu_bn_pool"):
            L.conv_relu_bn_pool(x, conv, bn)
        assert (bn.running_mean, bn.running_var) == (0, 1)


def tape_ops(out):
    """Op name -> number of the tape nodes that `out` depends on."""
    seen, stack = set(), [out._node]
    while stack:
        node = stack.pop()
        if isinstance(node, T.TapeNode) and node not in seen:
            seen.add(node)
            stack.extend(node.parents)
    return Counter(node.backward_fn.__qualname__.split(".")[0] for node in seen)


def tape_nodes(out):
    """Number of tape nodes that `out` depends on."""
    return sum(tape_ops(out).values())


class TestLinear:
    def test_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32))
        out = L.linear(x, Tensor(np.eye(4, dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_case(self):
        out = L.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[3.0]])

    def test_shape_contract(self):
        out = L.linear(
            Tensor(np.zeros((168, 64), dtype=np.float32)),
            Tensor(np.zeros((64, 32), dtype=np.float32)),
            Tensor(np.zeros(32, dtype=np.float32)),
        )
        assert out.shape == (168, 32)

    def test_grad_check(self):
        rng = np.random.default_rng(1)
        x, w, b = t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(3, 2))), t64(rng.normal(size=2))

        def f(x, w, b):
            out = L.linear(x, w, b)
            return (out * out).sum()

        for res in grad_check(f, [x, w, b], tol=1e-6):
            assert res.passed, res

    def test_grad_check_3d_input(self):
        rng = np.random.default_rng(2)
        x, w, b = t64(rng.normal(size=(2, 3, 4))), t64(rng.normal(size=(4, 5))), t64(rng.normal(size=5))
        coeff = rng.normal(size=(2, 3, 5))
        for res in grad_check(lambda *a: (L.linear(*a) * coeff).sum(), [x, w, b], tol=1e-6):
            assert res.passed, res

    def test_float32_matches_the_reference(self):
        # one float32 GEMM over 15 rows of 16 against the float64 batched product and add: the output and each
        # grad within 1e-6 of its largest float64 entry
        rng = np.random.default_rng(3)
        leaves = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in ((3, 5, 16), (16, 8), (8,))]
        assert_sublayer_matches_the_reference(leaves, L.linear, R.linear, rng.normal(size=(3, 5, 8)), 1e-6)

    def test_records_one_node(self):
        rng = np.random.default_rng(4)
        x, w, b = t64(rng.normal(size=(2, 3, 4))), t64(rng.normal(size=(4, 5))), t64(rng.normal(size=5))
        assert tape_ops(L.linear(x, w, b)) == {"linear": 1}

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w, b = t64(rng.normal(size=(4, 5))), t64(rng.normal(size=5))
        out = L.linear(x, w, b)
        dx, dw, db = out._node.backward_fn(np.ones(out.shape))
        assert dx is None and dw.shape == w.shape and db.shape == b.shape


class TestLayerNorm:
    def g_b(self, d, gamma=1.0, beta=0.0):
        return Tensor(np.full(d, gamma)), Tensor(np.full(d, beta))

    def test_constant_row_zeros(self):
        g, b = self.g_b(4)
        out = L.layer_norm(Tensor(np.full((2, 4), 7.0)), g, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-2)

    def test_two_point_row(self):
        g, b = self.g_b(2)
        out = L.layer_norm(Tensor([[1.0, 3.0]]), g, b)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        g, b = self.g_b(3, gamma=0.0, beta=2.5)
        out = L.layer_norm(Tensor(np.random.default_rng(0).normal(size=(4, 3))), g, b)
        np.testing.assert_array_equal(out.data, np.full((4, 3), 2.5))

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        x, g, b = t64(rng.normal(size=(3, 4))), t64(np.ones(4)), t64(np.zeros(4))
        coeff = rng.normal(size=(3, 4))
        for res in grad_check(lambda x, g, b: (L.layer_norm(x, g, b) * coeff).sum(), [x, g, b], tol=1e-4):
            assert res.passed, res

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)], ids=["float32", "float64"])
    def test_matches_the_reference(self, dtype, tol):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(loc=1.0, scale=2.0, size=(6, 9, 16)).astype(dtype), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, size=16).astype(dtype), requires_grad=True)
        beta = Tensor(rng.normal(size=16).astype(dtype), requires_grad=True)
        g = rng.normal(size=x.shape)
        assert tape_nodes(L.layer_norm(x, gamma, beta)) == 1
        want = sublayer_results(R.layer_norm, [R.float64_leaf(t) for t in (x, gamma, beta)], g)
        got = sublayer_results(L.layer_norm, [x, gamma, beta], g)
        assert all(a.dtype == dtype for a in got)
        R.assert_close(got, want, tol)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(L.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_saturation_stable(self):
        out = L.softmax(Tensor([1000.0, 0.0], dtype=np.float64)).data
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        a = L.softmax(Tensor(x)).data
        b = L.softmax(Tensor(x + 3.7)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_rows_sum_to_one(self):
        x = np.random.default_rng(1).normal(scale=4.0, size=(10, 7))
        out = L.softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(2, 5)))
        coeff = rng.normal(size=(2, 5))
        (res,) = grad_check(lambda t: (L.softmax(t) * coeff).sum(), [x], tol=1e-6)
        assert res.passed, res

    def test_keeps_float32(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 5)).astype(np.float32))
        assert L.softmax(x).dtype == np.float32

    def test_one_output_sized_buffer(self):
        # the forward and the rule each compute in one output-sized buffer
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 4, 64, 64)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=x.shape).astype(np.float32)

        def peak_above_base(fn):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            y, forward = peak_above_base(lambda: L.softmax(x))
            _, rule = peak_above_base(lambda: y._node.backward_fn(g))
        finally:
            tracemalloc.stop()
        assert forward <= 1.5 * y.data.nbytes, forward / y.data.nbytes
        assert rule <= 1.5 * y.data.nbytes, rule / y.data.nbytes


def gelu_by_feed_forward(x, requires_grad=True):
    """GELU of the entries of ndarray x, as [N, 1], through `feed_forward` with 1 x 1 identity weights and
    zero biases. Its products and bias adds are exact, so the values are those of the node's `_gelu_cdf`
    and, in backward, `_gelu_slope`."""
    w, b = np.ones((1, 1), x.dtype), np.zeros(1, x.dtype)
    return L.feed_forward(*(Tensor(a, requires_grad=requires_grad) for a in (x.reshape(-1, 1), w, b, w, b)))


class TestGelu:
    """`feed_forward`'s GELU, read through identity weights, and the reference's."""

    def test_known_values(self):
        # gelu(0) = 0, gelu(x) -> x for large x, -> 0 for very negative x
        out = gelu_by_feed_forward(np.array([0.0, 10.0, -10.0])).data
        np.testing.assert_allclose(out, [[0.0], [10.0], [0.0]], atol=1e-6)

    def test_grad_check(self):
        x = t64(np.random.default_rng(0).normal(size=8))
        (res,) = grad_check(lambda t: R.gelu(t).sum(), [x], tol=1e-6)
        assert res.passed, res

    def test_float64_is_the_erf_formula(self):
        x = np.random.default_rng(6).normal(scale=3.0, size=16 * 64)
        want = np.array([0.5 * v * (1 + math.erf(v / L.SQRT2)) for v in x])
        got = gelu_by_feed_forward(x).data.reshape(-1)
        np.testing.assert_array_equal(got, want)  # as values: the bias add turns an underflowed -0.0 into +0.0
        # math.erf against scipy's, an independent implementation
        err = np.abs(got - 0.5 * x * (1 + erf(x / L.SQRT2)))
        assert (err <= 1e-15 * np.maximum(1.0, np.abs(x))).all(), err.max()

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    def test_float32_matches_float64_formula(self, record):
        grid = np.linspace(-10.0, 10.0, 200_001)
        edges = [0.0, -0.0, 1e-30, -1e-30, 1e4, -1e4]
        x32 = np.concatenate([grid, edges]).astype(np.float32)
        x = x32.astype(np.float64)
        cdf = 0.5 * (1 + erf(x / L.SQRT2))
        want_out = x * cdf
        want_slope = cdf + x * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        with contextlib.nullcontext() if record else T.no_grad():
            out = gelu_by_feed_forward(x32)
        assert out.dtype == np.float32
        bound = 1e-6 * np.maximum(1.0, np.abs(x))
        pairs = [(out.data.reshape(-1), want_out)]
        if record:
            pairs.append((out._node.backward_fn(np.ones(out.shape, np.float32))[0].reshape(-1), want_slope))
        for got, want in pairs:
            assert got.dtype == np.float32
            err = np.abs(got.astype(np.float64) - want)
            assert (err <= bound).all(), (err / bound).max()


def attention_bruteforce(q, k, v):
    """Direct evaluation of the attention formula with explicit loops."""
    n, dk = q.shape
    out = np.zeros_like(v)
    for i in range(n):
        logits = np.array([q[i] @ k[j] / np.sqrt(dk) for j in range(n)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(n):
            out[i] += w[j] * v[j]
    return out


def mha_params(d, rng=None, dtype=np.float64, identity=False):
    def mk(shape):
        if identity:
            return Tensor(np.eye(shape[0], dtype=dtype), requires_grad=True)
        return Tensor(rng.normal(scale=0.4, size=shape).astype(dtype), requires_grad=True)

    zeros = lambda: Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
    return L.AttentionParams(
        wq=mk((d, d)), wk=mk((d, d)), wv=mk((d, d)), wo=mk((d, d)),
        bq=zeros(), bv=zeros(), bo=zeros(),
    )


class TestScaledDotAttention:
    """softmax(Q K^T / sqrt(d_k)) V as `multi_head_attention` runs it."""

    def test_single_token_returns_value(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4)))
        out = L.multi_head_attention(x, mha_params(4, identity=True), 1)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-12)

    def test_zero_keys_average_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        p = mha_params(3, dtype=np.float32, identity=True)
        p.wq.data[:] = rng.normal(size=(3, 3))
        p.wk.data[:] = 0.0
        out = L.multi_head_attention(Tensor(x), p, 1)
        np.testing.assert_allclose(out.data, np.broadcast_to(x.mean(axis=0), (5, 3)), atol=1e-6)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2))
        p = mha_params(2, rng)
        for b in (p.bq, p.bv, p.bo):
            b.data[:] = rng.normal(size=2)
        out = L.multi_head_attention(Tensor(x), p, 1)
        wq, wk, wv, wo, bq, bv, bo = (t.data for t in (p.wq, p.wk, p.wv, p.wo, p.bq, p.bv, p.bo))
        want = attention_bruteforce(x @ wq + bq, x @ wk, x @ wv + bv) @ wo + bo
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_weights_row_stochastic(self):
        rng = np.random.default_rng(3)
        q, k = (Tensor(rng.normal(size=(6, 4))) for _ in range(2))
        scores = T.matmul(q, T.permute_axes(k, (1, 0))) * (1.0 / 2.0)
        w = L.softmax(scores).data
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(w >= 0)

    def test_key_bias_cancels(self):
        # q.(k_j + b) - q.k_j = q.b is the same for every key j of a row, so
        # the softmax over keys removes it: a key bias has nothing to learn.
        # x's constant first feature adds Wk's first row to every key.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        x[:, 0] = 1.0
        p = mha_params(3, rng)
        shifted = L.multi_head_attention(Tensor(x), p, 1).data
        p.wk.data[0] = 0.0
        base = L.multi_head_attention(Tensor(x), p, 1).data
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-12)

    def test_raw_scores_are_freed(self, monkeypatch):
        # backward recomputes q, k, v and Q K^T, so of the forward's products only the output outlives it
        outputs = []
        matmul = L.matmul

        def recording_matmul(a, b):
            out = matmul(a, b)
            outputs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(L, "matmul", recording_matmul)
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(2, 4, 3)))
        p = mha_params(3, rng)
        out = L.multi_head_attention(x, p, 1)
        gc.collect()
        assert len(outputs) == 6  # q, k, v, the scores, the weights times v, the output projection
        assert [ref() is None for ref in outputs] == [True] * 5 + [False]
        backward(out.sum())
        for t in (x, p.wq, p.wk, p.wv, p.wo):
            assert np.any(t.grad != 0)

    def test_records_one_node(self):
        rng = np.random.default_rng(7)
        x = t64(rng.normal(size=(2, 4, 3)))
        assert tape_ops(L.multi_head_attention(x, mha_params(3, rng), 1)) == {"multi_head_attention": 1}


def bound_for_chunk(monkeypatch, n, itemsize, g):
    """Set the chunk byte bound so each attention chunk holds `g` n x n score blocks:
    g sequences of one head, or g / heads sequences of all their heads."""
    monkeypatch.setattr(L, "_CHUNK_BYTES", g * n * n * itemsize)


def traced_bytes(fn):
    """(result, bytes still held after fn, peak bytes during fn), above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - base, peak - base


def sublayer_results(fn, leaves, g):
    """fn(*leaves) and each leaf's grad of sum(out * g)."""
    out = fn(*leaves)
    backward((out * g).sum())
    return [out.data, *(t.grad for t in leaves)]


def assert_sublayer_matches_the_reference(leaves, node, reference, g, tol, name=""):
    """The node on `leaves` against the reference on float64 copies: the output and every leaf's grad."""
    want = sublayer_results(reference, [R.float64_leaf(t) for t in leaves], g)
    got = sublayer_results(node, leaves, g)
    assert all(a.dtype == leaves[0].dtype for a in got), name
    R.assert_close(got, want, tol, name)


class TestFusedAttention:
    """The node's chunk loops across chunk edges, against the reference, and their memory."""

    def test_grad_check_across_chunk_edge(self, monkeypatch):
        rng = np.random.default_rng(40)
        calls = []
        matmul = L.matmul

        def counting(a, b):
            calls.append(a.shape[0])  # rows of a weight product, sequences of an attention product
            return matmul(a, b)

        monkeypatch.setattr(L, "matmul", counting)
        for heads in (1, 2, 4):
            shape = (5, 3, 2 * heads)  # d_k = 2
            leaves, node, _ = sublayer_case("multi_head_attention", rng, np.float64, shape=shape, heads=heads)
            coeff = rng.normal(size=shape)
            bound_for_chunk(monkeypatch, 3, 8, 2 * heads)
            assert L._score_chunks(np.empty((5, heads, 3, 2))) == [slice(0, 2), slice(2, 4), slice(4, 5)]
            calls.clear()
            node(*leaves)
            # q, k and v over the 15 folded rows; two products for each chunk of 2, 2 and 1 sequences; the
            # output projection over the 15 rows
            assert calls == [15, 15, 15, 2, 2, 2, 2, 1, 1, 15], heads
            for res in grad_check(lambda *a: (node(*a) * coeff).sum(), leaves, tol=1e-6):
                assert res.passed, (heads, res)

    def test_float32_matches_composed(self, monkeypatch):
        rng = np.random.default_rng(41)
        for heads in (1, 2, 4):
            shape = (2, 3, 7, 4 * heads)  # G = 6 sequences: chunks of 4 and 2; d_k = 4
            bound_for_chunk(monkeypatch, 7, 4, 4 * heads)
            leaves, node, reference = sublayer_case("multi_head_attention", rng, np.float32, shape=shape, heads=heads)
            assert_sublayer_matches_the_reference(leaves, node, reference, rng.normal(size=shape), 1e-6, heads)

    def test_retains_no_score_tensor(self):
        rng = np.random.default_rng(42)
        shape = (16, 4, 64, 8)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        p = mha_params(8, rng, dtype=np.float32)
        out, retained, _ = traced_bytes(lambda: L.multi_head_attention(x, p, 1))
        score_bytes = 16 * 4 * 64 * 64 * 4
        assert retained - out.data.nbytes < score_bytes, retained / score_bytes

    def test_forward_peak_under_chunk_bound(self, monkeypatch):
        rng = np.random.default_rng(43)
        shape = (8, 4, 128, 8)  # output/scores = d_k/n = 1/16; paper-scale parts span 1/21 to 2/9
        score_bytes = 8 * 4 * 128 * 128 * 4
        bound_for_chunk(monkeypatch, 128, 4, 8 * 4 // 8)  # an eighth of the scores; q, k and v add 3/16
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        p = mha_params(8, rng, dtype=np.float32)
        _, _, peak = traced_bytes(lambda: L.multi_head_attention(x, p, 1))
        assert peak < score_bytes / 2, peak / score_bytes


class TestMultiHeadAttention:
    def test_single_head_identity_projection(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)))
        p = mha_params(4, identity=True)
        want = R.attention(x, x, x).data
        np.testing.assert_allclose(L.multi_head_attention(x, p, 1).data, want, rtol=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 7, 8)).astype(np.float32))
        p = mha_params(8, rng, dtype=np.float32)
        assert L.multi_head_attention(x, p, 4).shape == (2, 7, 8)

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        p = mha_params(6, rng)
        base = L.multi_head_attention(Tensor(x), p, 2).data
        perm = rng.permutation(4)
        permuted = L.multi_head_attention(Tensor(x[perm]), p, 2).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-5)

    def test_token_dim_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        p = mha_params(4, rng)
        with pytest.raises(DimensionError):
            L.multi_head_attention(Tensor(rng.normal(size=(3, 6))), p, 2)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(3)
        p = mha_params(6, rng)
        with pytest.raises(DimensionError, match="split"):
            L.multi_head_attention(Tensor(rng.normal(size=(3, 6))), p, 4)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(3, 4)))
        p = mha_params(4, rng)
        coeff = rng.normal(size=(3, 4))

        def f(x, wq, wk, wv, wo, bq, bv, bo):
            pp = L.AttentionParams(wq, wk, wv, wo, bq, bv, bo)
            return (L.multi_head_attention(x, pp, 2) * coeff).sum()

        for res in grad_check(f, [x, p.wq, p.wk, p.wv, p.wo, p.bq, p.bv, p.bo], tol=1e-4):
            assert res.passed, res


def sublayer_case(name, rng, dtype, shape=(2, 5, 8), heads=2):
    """Leaves (x first, then the weights and biases, all requiring grad), the node and its reference, each a
    function of the leaves."""
    d = shape[-1]

    def leaf(*s):
        return Tensor(rng.normal(scale=0.4, size=s).astype(dtype), requires_grad=True)

    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    if name == "feed_forward":
        return [x, leaf(d, 4 * d), leaf(4 * d), leaf(4 * d, d), leaf(d)], L.feed_forward, R.feed_forward

    def node(x, *params):
        return L.multi_head_attention(x, L.AttentionParams(*params), heads)

    def reference(*leaves):
        return R.multi_head_attention(*leaves, heads)

    return [x, *(leaf(d, d) for _ in range(4)), *(leaf(d) for _ in range(3))], node, reference


SUBLAYERS = ["multi_head_attention", "feed_forward"]


class TestSublayerNodes:
    """The encoder layer's one-node sublayers against their references."""

    def test_feed_forward_grad_check(self):
        leaves, node, _ = sublayer_case("feed_forward", np.random.default_rng(80), np.float64, shape=(2, 3, 4))
        coeff = np.random.default_rng(81).normal(size=(2, 3, 4))
        for res in grad_check(lambda *a: (node(*a) * coeff).sum(), leaves, tol=1e-6):
            assert res.passed, res

    @pytest.mark.parametrize("name", SUBLAYERS)
    def test_float32_matches_composed(self, name):
        leaves, node, reference = sublayer_case(name, np.random.default_rng(84), np.float32, shape=(3, 7, 16))
        g = np.random.default_rng(85).normal(size=(3, 7, 16))
        assert_sublayer_matches_the_reference(leaves, node, reference, g, 1e-6)

    @pytest.mark.parametrize("name", SUBLAYERS)
    def test_float64_matches_the_reference(self, name):
        leaves, node, reference = sublayer_case(name, np.random.default_rng(84), np.float64, shape=(3, 7, 16))
        g = np.random.default_rng(85).normal(size=(3, 7, 16))
        assert_sublayer_matches_the_reference(leaves, node, reference, g, 1e-12)

    @pytest.mark.parametrize("name", SUBLAYERS)
    def test_repeated_backward_accumulates(self, name):
        leaves, node, _ = sublayer_case(name, np.random.default_rng(86), np.float64)
        out = node(*leaves)
        loss = (out * np.random.default_rng(87).normal(size=out.shape)).sum()
        backward(loss)
        once = [t.grad.copy() for t in leaves]
        backward(loss)
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2 * g)

    @pytest.mark.parametrize("name", SUBLAYERS)
    def test_keeps_nothing_under_no_grad(self, name):
        leaves, node, _ = sublayer_case(name, np.random.default_rng(88), np.float32, shape=(16, 64, 32), heads=4)

        def forward():
            with T.no_grad():
                return node(*leaves)

        out, retained, _ = traced_bytes(forward)
        assert out._node is None
        assert retained <= 1.01 * out.data.nbytes, retained / out.data.nbytes


def node_case(name, rng, dtype=np.float32):
    """Leaves requiring grad and the node, a function of them, for `linear` and the two sublayers."""
    if name != "linear":
        return sublayer_case(name, rng, dtype)[:2]
    return [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in ((2, 5, 8), (8, 3), (3,))], L.linear


class TestNodeNumerics:
    """A node's forward computes on arrays, and a non-finite value inside it raises naming the node."""

    def test_lone_negative_infinite_score_raises(self):
        # q_0 . k_1 = 1e20 * -1e20 overflows float32 to -inf, and every other score is 0: softmax would give
        # that key weight 0, and with v = 0 the output would be finite
        x = Tensor(np.array([[[0.0, 1e20], [-1e20, 0.0]]], np.float32))
        p = mha_params(2, dtype=np.float32, identity=True)
        p.wq.data[:] = [[0, 0], [1, 0]]  # q_i = (x_i1, 0)
        p.wk.data[:] = [[1, 0], [0, 0]]  # k_i = (x_i0, 0)
        p.wv.data[:] = 0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match=r"multi_head_attention \(output shape \(1, 1, 2, 2\)"):
            L.multi_head_attention(x, p, 1)

    @pytest.mark.parametrize("name", ["linear", "feed_forward"])
    def test_overflowing_product_names_the_node(self, name):
        leaves, node = node_case(name, np.random.default_rng(90))
        for t in leaves:
            t.data[:] = np.abs(t.data) + 1.0
        leaves[0].data *= 1e20
        leaves[1].data *= 1e20  # the first product, x W or the hidden layer, is past float32's 3.4e38
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match=name):
            node(*leaves)

    @pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
    @pytest.mark.parametrize("name", ["linear", *SUBLAYERS])
    def test_forward_builds_no_tensor_but_its_output(self, name, recorded, monkeypatch):
        leaves, node = node_case(name, np.random.default_rng(91))
        calls = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        with contextlib.nullcontext() if recorded else T.no_grad():
            out = node(*leaves)
        assert calls == [] and (out._node is not None) == recorded


def encoder_params(d, rng, dtype=np.float64, zero_out=False):
    p = L.EncoderLayerParams(
        ln1_gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln1_beta=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        attn=mha_params(d, rng, dtype=dtype),
        ln2_gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln2_beta=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        ffn_w1=Tensor(rng.normal(scale=0.4, size=(d, 4 * d)).astype(dtype), requires_grad=True),
        ffn_b1=Tensor(np.zeros(4 * d, dtype=dtype), requires_grad=True),
        ffn_w2=Tensor(rng.normal(scale=0.4, size=(4 * d, d)).astype(dtype), requires_grad=True),
        ffn_b2=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
    )
    if zero_out:
        p.attn.wo.data[:] = 0.0
        p.ffn_w2.data[:] = 0.0
    return p


class TestEncoderLayer:
    def test_zeroed_output_projections_give_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)))
        p = encoder_params(4, rng, zero_out=True)
        np.testing.assert_allclose(L.transformer_encoder_layer(x, p, 2).data, x.data, atol=1e-7)

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 6, 8)).astype(np.float32))
        p = encoder_params(8, rng, dtype=np.float32)
        assert L.transformer_encoder_layer(x, p, 2).shape == (2, 6, 8)

    def test_tapes_no_reshape_or_permute(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 5, 8)))
        ops = tape_ops(L.transformer_encoder_layer(x, encoder_params(8, rng), 2))
        assert ops["multi_head_attention"] == ops["feed_forward"] == 1, ops
        assert ops["permute_axes"] == ops["reshape"] == 0, ops

    def test_retains_six_inputs(self):
        # the two LayerNorms' x-hat, the attention node's input and joined heads,
        # the FFN node's input and the layer output, all d-wide; the attention
        # node's log-sum-exp adds heads / d = 1/8 of one
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(16, 64, 32)).astype(np.float32), requires_grad=True)
        p = encoder_params(32, rng, dtype=np.float32)
        _, retained, _ = traced_bytes(lambda: L.transformer_encoder_layer(x, p, 4))
        assert retained <= 6.5 * x.data.nbytes, retained / x.data.nbytes

    def test_grad_check_d4_n3(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 4)))
        p = encoder_params(4, rng)
        coeff = rng.normal(size=(3, 4))
        params = [x, p.ln1_gamma, p.ln1_beta, p.attn.wq, p.attn.wv, p.ffn_w1, p.ffn_w2]

        def f(x, g1, b1, wq, wv, w1, w2):
            pp = L.EncoderLayerParams(
                g1, b1,
                L.AttentionParams(wq, p.attn.wk, wv, p.attn.wo, p.attn.bq, p.attn.bv, p.attn.bo),
                p.ln2_gamma, p.ln2_beta, w1, p.ffn_b1, w2, p.ffn_b2,
            )
            return (L.transformer_encoder_layer(x, pp, 2) * coeff).sum()

        for res in grad_check(f, params, tol=1e-4):
            assert res.passed, res


class TestGlobalAvgPool:
    def test_constant(self):
        out = L.global_avg_pool(Tensor(np.full((2, 3, 4, 4, 4), 2.5, dtype=np.float32)))
        np.testing.assert_allclose(out.data, 2.5)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, 2, 4, 4, 4)), rng.normal(size=(2, 2, 4, 4, 4))
        lhs = L.global_avg_pool(Tensor(x + y)).data
        rhs = L.global_avg_pool(Tensor(x)).data + L.global_avg_pool(Tensor(y)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_shape_contract(self):
        assert L.global_avg_pool(Tensor(np.zeros((2, 40, 6, 7, 6)))).shape == (2, 40)
