"""Layer ops: spec'd shape/value cases, brute-force oracles, gradient checks."""

import contextlib
import gc
import math
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy.special import erf

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
    def test_zero_kernel_annihilates(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4, 4, 4)).astype(np.float32))
        out = L.conv3d(x, conv_params(3, 2, dtype=np.float32))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_ones_kernel_counts_neighbors(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2), dtype=np.float64))
        p = conv_params(1, 1)
        p.weight.data[:] = 1.0
        out = L.conv3d(x, p)
        # every voxel of a 2x2x2 cube has all 8 cube voxels in its 3^3 window
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2, 2), 8.0))

    def test_paper_channel_shape(self):
        x = Tensor(np.zeros((2, 16, 8, 12, 8), dtype=np.float32))
        out = L.conv3d(x, conv_params(32, 16, dtype=np.float32))
        assert out.shape == (2, 32, 8, 12, 8)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel"):
            L.conv3d(Tensor(np.zeros((1, 3, 4, 4, 4))), conv_params(2, 4))

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            B, Cin, Cout = (int(v) for v in rng.integers(1, 3, size=3))
            D, H, W = (int(v) for v in rng.integers(1, 6, size=3))
            x = rng.normal(size=(B, Cin, D, H, W))
            p = conv_params(Cout, Cin, rng)
            out = L.conv3d(Tensor(x), p)
            want = conv3d_bruteforce(x, p.weight.data, p.bias.data)
            np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(1, 2, 3, 3, 3)))
        p = conv_params(2, 2, rng)

        def f(x, w, b):
            return (L.conv3d(x, L.Conv3dParams(w, b)) * 0.7).sum()

        for res in grad_check(f, [x, p.weight, p.bias], tol=1e-6):
            assert res.passed, res


def conv3d_taps_reference(x, w, b, g):
    """27 shifted tensordot accumulations: forward output and (dx, dw, db) for `g`."""
    B, Cin, D, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    acc = np.zeros((w.shape[0], B, D, H, W), dtype=x.dtype)
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i, j, k in product(range(3), range(3), range(3)):
        view = xp[:, :, i : i + D, j : j + H, k : k + W]
        acc += np.tensordot(w[:, :, i, j, k], view, axes=(1, 1))
        dw[:, :, i, j, k] = np.tensordot(g, view, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
        spread = np.tensordot(w[:, :, i, j, k], g, axes=(0, 1))
        dxp[:, :, i : i + D, j : j + H, k : k + W] += spread.transpose(1, 0, 2, 3, 4)
    out = acc.transpose(1, 0, 2, 3, 4) + b.reshape(1, -1, 1, 1, 1)
    return out, dxp[:, :, 1:-1, 1:-1, 1:-1], dw, g.sum(axis=(0, 2, 3, 4))


def bound_for_slab_depth(monkeypatch, x_shape, itemsize, depth):
    """Set the chunk byte bound so each slab of an input of `x_shape` holds `depth` planes."""
    B, Cin, _, H, W = x_shape
    monkeypatch.setattr(L, "_CHUNK_BYTES", depth * 27 * Cin * B * H * W * itemsize)


def forward_slabs(monkeypatch, x, p):
    """The depth ranges [d0, d1) one conv3d forward unfolds, in order."""
    seen = []
    cols = L._cols

    def recording(xp, d0, d1):
        seen.append((d0, d1))
        return cols(xp, d0, d1)

    with monkeypatch.context() as m:
        m.setattr(L, "_cols", recording)
        L.conv3d(x, p)
    return seen


class TestConv3dSlabs:
    """The slab im2col/col2im path against the 27-tap reference, across slab edges."""

    @pytest.mark.parametrize("c_in", [1, 5])
    def test_float32_matches_tap_reference(self, monkeypatch, c_in):
        rng = np.random.default_rng(20 + c_in)
        shape = (3, c_in, 7, 4, 5)
        bound_for_slab_depth(monkeypatch, shape, 4, 3)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        p = conv_params(4, c_in, rng, dtype=np.float32)
        assert [d1 - d0 for d0, d1 in forward_slabs(monkeypatch, x, p)] == [3, 3, 1]
        p.bias.data[:] = rng.normal(size=4)
        g = rng.normal(size=(3, 4, 7, 4, 5)).astype(np.float32)
        out = L.conv3d(x, p)
        backward((out * Tensor(g)).sum())
        want = conv3d_taps_reference(x.data, p.weight.data, p.bias.data, g)
        got = (out.data, x.grad, p.weight.grad, p.bias.grad)
        for name, a, ref in zip(("out", "dx", "dw", "db"), got, want):
            assert a.dtype == np.float32, name
            err = np.abs(a - ref).max()
            assert err <= 1e-5 * np.abs(ref).max(), (name, err)

    def test_grad_check_across_slab_boundary(self, monkeypatch):
        rng = np.random.default_rng(30)
        x = t64(rng.normal(size=(2, 2, 3, 3, 2)))
        bound_for_slab_depth(monkeypatch, x.shape, 8, 2)
        p = conv_params(3, 2, rng)
        assert forward_slabs(monkeypatch, x, p) == [(0, 2), (2, 3)]
        coeff = rng.normal(size=(2, 3, 3, 3, 2))

        def f(x, w, b):
            return (L.conv3d(x, L.Conv3dParams(w, b)) * coeff).sum()

        for res in grad_check(f, [x, p.weight, p.bias], tol=1e-6):
            assert res.passed, res


    def test_constant_input_skips_dx(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(2, 1, 5, 4, 3)).astype(np.float32))
        p = conv_params(3, 1, rng, dtype=np.float32)
        p.bias.data[:] = rng.normal(size=3)
        g = rng.normal(size=(2, 3, 5, 4, 3)).astype(np.float32)
        out = L.conv3d(x, p)
        assert out._node.backward_fn(g)[0] is None
        backward((out * Tensor(g)).sum())
        _, _, dw, db = conv3d_taps_reference(x.data, p.weight.data, p.bias.data, g)
        for name, a, ref in (("dw", p.weight.grad, dw), ("db", p.bias.grad, db)):
            assert np.abs(a - ref).max() <= 1e-5 * np.abs(ref).max(), name


class TestRelu:
    def test_sign_cases(self):
        out = L.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_idempotent(self):
        x = Tensor(np.random.default_rng(0).normal(size=50))
        once = L.relu(x)
        np.testing.assert_array_equal(L.relu(once).data, once.data)

    def test_grad_at_sides(self):
        x = t64([2.0, -1.0])
        backward(L.relu(x).sum())
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])
        (res,) = grad_check(lambda t: L.relu(t).sum(), [t64([2.0, -1.0, 0.5])], tol=1e-6)
        assert res.passed


class TestMaxPool3d:
    def test_constant_volume(self):
        out = L.maxpool3d(Tensor(np.full((1, 2, 4, 4, 4), 3.5, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2, 2), 3.5))

    def test_window_max(self):
        x = Tensor(np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2))
        assert L.maxpool3d(x).item() == 8.0

    def test_shape_contract(self):
        assert L.maxpool3d(Tensor(np.zeros((1, 1, 4, 4, 4)))).shape == (1, 1, 2, 2, 2)

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError, match="divisible"):
            L.maxpool3d(Tensor(np.zeros((1, 1, 3, 4, 4))))

    def test_invariant_to_intra_window_permutation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4, 4))
        base = L.maxpool3d(Tensor(x)).data
        cube = x.reshape(1, 1, 2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(-1, 8)
        shuffled = cube.copy()
        for row in shuffled:
            rng.shuffle(row)
        back = (
            shuffled.reshape(1, 1, 2, 2, 2, 2, 2, 2)
            .transpose(0, 1, 2, 5, 3, 6, 4, 7)
            .reshape(1, 1, 4, 4, 4)
        )
        np.testing.assert_array_equal(L.maxpool3d(Tensor(back)).data, base)

    def test_grad_routes_to_first_argmax(self):
        data = np.zeros((1, 1, 2, 2, 2))
        data[0, 0, 0, 0, 0] = 5.0
        data[0, 0, 1, 1, 1] = 5.0  # tie: first flat index wins
        x = t64(data)
        backward(L.maxpool3d(x).sum())
        want = np.zeros_like(data)
        want[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        # well-separated values so the finite-difference step cannot flip the argmax
        vals = rng.permutation(np.arange(64, dtype=np.float64)).reshape(1, 1, 4, 4, 4)
        x = t64(vals)
        (res,) = grad_check(lambda t: (L.maxpool3d(t) * 0.3).sum(), [x], tol=1e-6)
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
            out = L.maxpool3d(x)
        g = rng.normal(size=out.shape).astype(dtype)
        g[..., 0] = -0.0
        want_out, want_dx = maxpool_transposed(data, g)
        pairs = [(out.data, want_out)]
        if record:
            pairs.append((out._node.backward_fn(g)[0], want_dx))
        else:
            assert out._node is None
        for got, want in pairs:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            np.testing.assert_array_equal(got, want)


def maxpool_transposed(x, g):
    """Max pool as it was before strided views (reference): (output, dx for `g`).

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
    def bn_state(self, c, dtype=np.float64, training=True):
        return L.BatchNorm3dState(
            gamma=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(c, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(c, dtype=dtype),
            running_var=np.ones(c, dtype=dtype),
            training=training,
        )

    def test_train_normalizes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(2, 3, 4, 4, 4)))
        out = L.batchnorm3d(x, self.bn_state(3)).data
        mean = out.mean(axis=(0, 2, 3, 4))
        var = out.var(axis=(0, 2, 3, 4))
        assert np.all(np.abs(mean) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_affine(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2, 4, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3, 4), keepdims=True)) / x.std(axis=(0, 2, 3, 4), keepdims=True)
        s = self.bn_state(2)
        s.gamma.data[:] = 2.0
        s.beta.data[:] = 3.0
        out = L.batchnorm3d(Tensor(x), s).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3, 4)), 3.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3, 4)), 2.0, rtol=1e-4)

    def test_eval_identity_stats(self):
        x = Tensor(np.random.default_rng(2).normal(size=(1, 2, 2, 2, 2)))
        s = self.bn_state(2, training=False)
        out = L.batchnorm3d(x, s)
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_single_element_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            L.batchnorm3d(Tensor(np.ones((1, 2, 1, 1, 1))), self.bn_state(2))

    def test_running_stats_update(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5.0, size=(4, 1, 4, 4, 4))
        s = self.bn_state(1)
        L.batchnorm3d(Tensor(x), s)
        n = x.size
        want_mean = 0.1 * x.mean()
        want_var = 0.9 + 0.1 * x.var() * n / (n - 1)
        np.testing.assert_allclose(s.running_mean, want_mean, rtol=1e-5)
        np.testing.assert_allclose(s.running_var, want_var, rtol=1e-5)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(2, 2, 2, 2, 2)))
        s = self.bn_state(2)

        def f(x, g, b):
            st = L.BatchNorm3dState(g, b, np.zeros(2), np.ones(2), training=True)
            return (L.batchnorm3d(x, st) * rng2).sum()

        rng2 = np.random.default_rng(5).normal(size=(2, 2, 2, 2, 2))
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


def cnn_block_composed(x, conv, bn):
    """The CNN block as four tape nodes (reference)."""
    return L.maxpool3d(L.batchnorm3d(L.relu(L.conv3d(x, conv)), bn))


class TestConvReluBnPool:
    """The one-node CNN block against the composed `conv3d`, `relu`, `batchnorm3d` and `maxpool3d`."""

    def one_pooled_depth_per_slab(self, monkeypatch, x):
        B, c_in, _, H, W = x.shape
        monkeypatch.setattr(L, "_CHUNK_BYTES", 2 * 27 * c_in * B * H * W * x.data.itemsize)

    def assert_ties_at_zero(self, x, conv):
        windows = np.stack(L._windows(L.relu(L.conv3d(x, conv)).data))  # [8, B, C, D/2, H/2, W/2]
        zeros = (windows == 0).sum(axis=0)
        assert (zeros[:, 1] == 8).mean() > 0.3  # channel 1: windows of relu zeros only
        assert (zeros[:, 0] >= 2).mean() > 0.3  # gamma < 0: the kept minimum is a tie at 0

    @pytest.mark.parametrize("slabs", [1, 3])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_composed_block(self, monkeypatch, dtype, training, slabs):
        if slabs == 3:
            self.one_pooled_depth_per_slab(monkeypatch, cnn_block_case(np.random.default_rng(71), dtype, training)[0])
        results, forward_slabs = [], []
        for block in (L.conv_relu_bn_pool, cnn_block_composed):
            x, conv, bn = cnn_block_case(np.random.default_rng(71), dtype, training)
            self.assert_ties_at_zero(x, conv)
            with monkeypatch.context() as m:
                m.setattr(L, "_conv_slab", lambda *a, f=L._conv_slab: forward_slabs.append(block) or f(*a))
                out = block(x, conv, bn)
            coeff = np.random.default_rng(72).normal(size=out.shape)
            backward((out * coeff).sum())
            leaves = (x, conv.weight, conv.bias, bn.gamma, bn.beta)
            results.append([out.data, *(t.grad for t in leaves), bn.running_mean, bn.running_var])
        assert forward_slabs.count(L.conv_relu_bn_pool) == slabs
        (node, *node_rest), (ref, *ref_rest) = results
        if not training:  # constant statistics: pooling first is exact
            np.testing.assert_array_equal(node, ref)
        tol = 1e-12 if dtype == np.float64 else 2e-6  # float32: float64 statistics against numpy's float32 ones
        for name, a, want in zip(("out", "dx", "dw", "db", "dgamma", "dbeta", "mean", "var"), [node, *node_rest],
                                 [ref, *ref_rest]):
            assert a.dtype == dtype and a.shape == want.shape, name
            assert np.abs(a - want).max() <= tol * np.abs(want).max(), name

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
        one, zero = np.ones(1, np.float32), np.zeros(1, np.float32)
        bn = L.BatchNorm3dState(Tensor(one, requires_grad=True), Tensor(zero, requires_grad=True), zero.copy(),
                                one.copy(), training=True)
        return Tensor(x), conv, bn

    def test_non_finite_batch_statistics_raise_before_the_running_ones_change(self):
        # 3e19: float32 holds the variance (9.8e37) but not the squares, so float32 statistics overflow
        x, conv, bn = self.overflow_case(3e19)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="statistics in forward op normalize"):
            cnn_block_composed(x, conv, bn)
        assert (bn.running_mean, bn.running_var) == (0, 1)
        out = L.conv_relu_bn_pool(x, conv, bn)  # float64 statistics
        xhat = (3e19 - 3.75e18) / np.sqrt((8 * 3e19**2 + 56) / 64 - 3.75e18**2)  # every window keeps 3e19
        np.testing.assert_allclose(out.data, xhat, rtol=1e-6)
        # 1e20: the variance itself (1.1e39) is past float32's 3.4e38
        x, conv, bn = self.overflow_case(1e20)
        with pytest.raises(NumericsError, match="statistics in forward op conv_relu_bn_pool"):
            L.conv_relu_bn_pool(x, conv, bn)
        assert (bn.running_mean, bn.running_var) == (0, 1)


def batchnorm_composite(x, s):
    """BatchNorm as the tensor-op composite it was before `normalize` (reference)."""
    C = x.shape[1]
    axes = (0, 2, 3, 4)
    if s.training:
        mu = x.mean(axis=axes, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        xhat = centered / T.sqrt(var + L.EPS)
    else:
        rm = Tensor(s.running_mean.reshape(1, C, 1, 1, 1), dtype=x.dtype)
        rv = Tensor(s.running_var.reshape(1, C, 1, 1, 1), dtype=x.dtype)
        xhat = (x - rm) / T.sqrt(rv + L.EPS)
    return xhat * T.reshape(s.gamma, (1, C, 1, 1, 1)) + T.reshape(s.beta, (1, C, 1, 1, 1))


def layer_norm_composite(x, gamma, beta):
    """LayerNorm as the tensor-op composite it was before `normalize` (reference)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / T.sqrt(var + L.EPS) * gamma + beta


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


def bn_case(rng, training, dtype=np.float32):
    c = 4
    s = L.BatchNorm3dState(
        gamma=Tensor(rng.uniform(0.5, 2.0, size=c).astype(dtype), requires_grad=True),
        beta=Tensor(rng.normal(size=c).astype(dtype), requires_grad=True),
        running_mean=rng.normal(size=c).astype(dtype),
        running_var=rng.uniform(0.5, 3.0, size=c).astype(dtype),
        training=training,
    )
    x = Tensor(rng.normal(loc=2.0, scale=3.0, size=(3, c, 5, 6, 7)).astype(dtype), requires_grad=True)
    return x, s


class TestNormalize:
    """The one normalization primitive against the composites it replaced."""

    def run(self, fn, x, params, g):
        for t in (x,) + params:
            t.zero_grad()
        out = fn()
        backward((out * Tensor(g)).sum())
        return out, [out.data, x.grad.copy()] + [p.grad.copy() for p in params]

    @pytest.mark.parametrize("case", ["bn_train", "bn_eval", "ln"])
    def test_float32_matches_composite(self, case):
        rng = np.random.default_rng(50)
        if case == "ln":
            x = Tensor(rng.normal(loc=1.0, scale=2.0, size=(6, 9, 16)).astype(np.float32), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 2.0, size=16).astype(np.float32), requires_grad=True)
            beta = Tensor(rng.normal(size=16).astype(np.float32), requires_grad=True)
            params = (gamma, beta)
            new, ref = (lambda: L.layer_norm(x, gamma, beta)), (lambda: layer_norm_composite(x, gamma, beta))
            nodes = 1
        else:
            x, s = bn_case(rng, training=case == "bn_train")
            params = (s.gamma, s.beta)
            new, ref = (lambda: L.batchnorm3d(x, s)), (lambda: batchnorm_composite(x, s))
            nodes = 3  # normalize plus the gamma and beta reshapes
        g = rng.normal(size=x.shape).astype(np.float32)
        out, got = self.run(new, x, params, g)
        assert tape_nodes(out) == nodes
        _, want = self.run(ref, x, params, g)
        for name, a, r in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert a.dtype == np.float32, name
            err = np.abs(a - r).max()
            assert err <= 1e-5 * np.abs(r).max(), (name, err)

    def test_axis_out_of_range(self):
        x = Tensor(np.ones((2, 3, 4), dtype=np.float32))
        gamma, beta = Tensor(np.ones(4, dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32))
        for axes in ((5,), (-4,), (0, 3)):
            with pytest.raises(DimensionError, match="out of range"):
                L.normalize(x, gamma, beta, axes)

    def test_grad_check_bn_eval(self):
        rng = np.random.default_rng(51)
        x, s = bn_case(rng, training=False, dtype=np.float64)
        x = t64(x.data[:2, :, :2, :3, :2])
        coeff = rng.normal(size=x.shape)

        def f(x, g, b):
            st = L.BatchNorm3dState(g, b, s.running_mean, s.running_var, training=False)
            return (L.batchnorm3d(x, st) * coeff).sum()

        for res in grad_check(f, [x, s.gamma, s.beta], tol=1e-6):
            assert res.passed, res

    def test_grad_check_bn_eval_one_voxel(self):
        # gamma's [1, C, 1, 1, 1] is x's own shape, so dgamma is not a sum of
        # the buffer that backward goes on to overwrite with dx
        rng = np.random.default_rng(52)
        x, s = bn_case(rng, training=False, dtype=np.float64)
        x = t64(x.data[:1, :, :1, :1, :1])
        coeff = rng.normal(size=x.shape)

        def f(x, g, b):
            st = L.BatchNorm3dState(g, b, s.running_mean, s.running_var, training=False)
            return (L.batchnorm3d(x, st) * coeff).sum()

        for res in grad_check(f, [x, s.gamma, s.beta], tol=1e-6):
            assert res.passed, res


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


class TestGelu:
    def test_known_values(self):
        # gelu(0) = 0, gelu(x) -> x for large x, -> 0 for very negative x
        out = L.gelu(Tensor([0.0, 10.0, -10.0], dtype=np.float64)).data
        np.testing.assert_allclose(out, [0.0, 10.0, 0.0], atol=1e-6)

    def test_grad_check(self):
        x = t64(np.random.default_rng(0).normal(size=8))
        (res,) = grad_check(lambda t: L.gelu(t).sum(), [x], tol=1e-6)
        assert res.passed, res

    def test_float64_is_the_erf_formula(self):
        x = np.random.default_rng(6).normal(scale=3.0, size=(16, 64))
        want = np.array([0.5 * v * (1 + math.erf(v / L.SQRT2)) for v in x.ravel()]).reshape(x.shape)
        got = L.gelu(Tensor(x)).data
        assert got.tobytes() == want.tobytes()
        # math.erf against scipy's, an independent implementation
        err = np.abs(got - 0.5 * x * (1 + erf(x / L.SQRT2)))
        assert (err <= 1e-15 * np.maximum(1.0, np.abs(x))).all(), err.max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    def test_zero_dim(self, record, dtype):
        t = Tensor(np.array([0.3, 0.4], dtype=dtype), requires_grad=True)
        with contextlib.nullcontext() if record else T.no_grad():
            out = L.gelu(T.tsum(t))
        v = float(t.data.sum())
        cdf = 0.5 * (1 + math.erf(v / math.sqrt(2)))
        tol = 1e-6 if dtype == np.float32 else 1e-15
        assert out.shape == () and out.dtype == dtype
        assert abs(float(out.data) - v * cdf) <= tol
        if record:
            backward(out)
            slope = cdf + v * math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
            np.testing.assert_allclose(t.grad, [slope, slope], rtol=tol)

    def test_grad_check_zero_dim(self):
        x = t64(np.random.default_rng(7).normal(size=3))
        (res,) = grad_check(lambda t: L.gelu(T.tsum(t)), [x], tol=1e-6)
        assert res.passed, res

    @pytest.mark.parametrize("record", [True, False], ids=["record", "no_grad"])
    def test_float32_matches_float64_formula(self, record):
        grid = np.linspace(-10.0, 10.0, 200_001)
        edges = [0.0, -0.0, 1e-30, -1e-30, 1e4, -1e4]
        x32 = np.concatenate([grid, edges]).astype(np.float32)
        x = x32.astype(np.float64)
        cdf = 0.5 * (1 + erf(x / L.SQRT2))
        want_out = x * cdf
        want_slope = cdf + x * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        t = Tensor(x32, requires_grad=True)
        with contextlib.nullcontext() if record else T.no_grad():
            out = L.gelu(t)
        assert out.dtype == np.float32
        bound = 1e-6 * np.maximum(1.0, np.abs(x))
        pairs = [(out.data, want_out)]
        if record:
            pairs.append((out._node.backward_fn(np.ones_like(x32))[0], want_slope))
        for got, want in pairs:
            err = np.abs(got.astype(np.float64) - want)
            assert (err <= bound).all(), (err / bound).max()

    def test_keeps_only_its_slope(self):
        # the pre-activation is an op output whose own rule keeps nothing, so
        # once dropped it lives only if gelu's node holds it
        w = Tensor(np.random.default_rng(5).normal(size=(64, 1024)).astype(np.float32), requires_grad=True)
        out, retained, _ = traced_bytes(lambda: L.gelu(w + 0.0))
        extra = retained - out.data.nbytes
        assert extra <= 1.1 * out.data.nbytes, extra / out.data.nbytes


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


class TestScaledDotAttention:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(1, 4))) for _ in range(3))
        np.testing.assert_allclose(L.scaled_dot_attention(q, k, v, 1).data, v.data, rtol=1e-6)

    def test_zero_keys_average_values(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(5, 3)).astype(np.float32)
        out = L.scaled_dot_attention(
            Tensor(rng.normal(size=(5, 3)).astype(np.float32)),
            Tensor(np.zeros((5, 3), dtype=np.float32)),
            Tensor(v),
            1,
        )
        np.testing.assert_allclose(out.data, np.broadcast_to(v.mean(axis=0), (5, 3)), atol=1e-6)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(3, 2)) for _ in range(3))
        out = L.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 1)
        np.testing.assert_allclose(out.data, attention_bruteforce(q, k, v), atol=1e-6)

    def test_weights_row_stochastic(self):
        rng = np.random.default_rng(3)
        q, k = (Tensor(rng.normal(size=(6, 4))) for _ in range(2))
        scores = T.matmul(q, T.permute_axes(k, (1, 0))) * (1.0 / 2.0)
        w = L.softmax(scores).data
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(w >= 0)

    def test_key_bias_cancels(self):
        # q.(k_j + b) - q.k_j = q.b is the same for every key j of a row, so
        # the softmax over keys removes it: a key bias has nothing to learn
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        b = rng.normal(size=(1, 3))
        shifted = L.scaled_dot_attention(Tensor(q), Tensor(k + b), Tensor(v), 1).data
        base = L.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 1).data
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shapes", [[(3, 4), (3, 4), (2, 4)], [(4,)] * 3], ids=["unequal", "rank1"])
    def test_operands_must_be_equal_sequences(self, shapes):
        with pytest.raises(DimensionError, match="equal"):
            L.scaled_dot_attention(*(Tensor(np.ones(s)) for s in shapes), 1)

    @pytest.mark.parametrize("heads", [4, 0])
    def test_heads_must_split_width(self, heads):
        q = Tensor(np.ones((3, 6)))
        with pytest.raises(DimensionError, match="heads"):
            L.scaled_dot_attention(q, q, q, heads)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        q, k, v = (t64(rng.normal(size=(3, 2))) for _ in range(3))
        coeff = rng.normal(size=(3, 2))
        for res in grad_check(
            lambda q, k, v: (L.scaled_dot_attention(q, k, v, 1) * coeff).sum(), [q, k, v], tol=1e-5
        ):
            assert res.passed, res

    def test_raw_scores_are_freed(self, monkeypatch):
        # backward recomputes Q K^T, so no rule keeps it
        outputs = []
        matmul = L.matmul

        def recording_matmul(a, b):
            out = matmul(a, b)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(L, "matmul", recording_matmul)
        rng = np.random.default_rng(6)
        q, k, v = (t64(rng.normal(size=(2, 4, 3))) for _ in range(3))
        out = L.scaled_dot_attention(q, k, v, 1)
        gc.collect()
        assert outputs[0]() is None
        backward(out.sum())
        for t in (q, k, v):
            assert np.any(t.grad != 0)

    def test_records_one_node(self):
        rng = np.random.default_rng(7)
        q, k, v = (t64(rng.normal(size=(2, 4, 3))) for _ in range(3))
        ops = tape_ops(L.scaled_dot_attention(q, k, v, 1))
        assert ops == {"scaled_dot_attention": 1}


def attention_composed(q, k, v):
    """Attention as the tensor-op composite it was before the fused node (reference)."""
    r = k.ndim
    kt = T.permute_axes(k, tuple(range(r - 2)) + (r - 1, r - 2))
    return T.matmul(L.softmax(T.matmul(q, kt) * float(1.0 / np.sqrt(q.shape[-1]))), v)


def attention_per_head(q, k, v, heads):
    """attention_composed on explicit head-split copies of [*, n, d] operands,
    the heads concatenated back to [*, n, d] (reference)."""
    *lead, n, d = q.shape
    a = len(lead)
    perm = tuple(range(a)) + (a + 1, a, a + 2)  # [*, n, h, d_k] <-> [*, h, n, d_k]
    q, k, v = (T.permute_axes(T.reshape(t, (*lead, n, heads, d // heads)), perm) for t in (q, k, v))
    return T.reshape(T.permute_axes(attention_composed(q, k, v), perm), (*lead, n, d))


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


class TestFusedAttention:
    """The chunked node against the composed path, across chunk edges, and its memory."""

    def test_grad_check_across_chunk_edge(self, monkeypatch):
        rng = np.random.default_rng(40)
        calls = []
        matmul = L.matmul

        def counting(a, b):
            calls.append(len(a))  # sequences in this product
            return matmul(a, b)

        monkeypatch.setattr(L, "matmul", counting)
        for heads in (1, 2, 4):
            shape = (5, 3, 2 * heads)  # d_k = 2
            q, k, v = (t64(rng.normal(size=shape)) for _ in range(3))
            coeff = rng.normal(size=shape)
            bound_for_chunk(monkeypatch, 3, 8, 2 * heads)
            calls.clear()
            L.scaled_dot_attention(q, k, v, heads)
            assert calls == [2, 2, 2, 2, 1, 1], heads  # chunks of 2, 2 and 1 sequences, two products each
            for res in grad_check(
                lambda q, k, v: (L.scaled_dot_attention(q, k, v, heads) * coeff).sum(), [q, k, v], tol=1e-6
            ):
                assert res.passed, (heads, res)

    def test_float32_matches_composed(self, monkeypatch):
        rng = np.random.default_rng(41)
        for heads in (1, 2, 4):
            shape = (2, 3, 7, 4 * heads)  # G = 6 sequences: chunks of 4 and 2; d_k = 4
            bound_for_chunk(monkeypatch, 7, 4, 4 * heads)
            qkv = [rng.normal(scale=2.0, size=shape).astype(np.float32) for _ in range(3)]
            g = rng.normal(size=shape).astype(np.float32)
            results = []
            for attend in (L.scaled_dot_attention, attention_per_head):
                q, k, v = (Tensor(a, requires_grad=True) for a in qkv)
                out = attend(q, k, v, heads)
                backward((out * Tensor(g)).sum())
                results.append((out.data, q.grad, k.grad, v.grad))
            for name, got, ref in zip(("out", "dq", "dk", "dv"), *results):
                assert got.dtype == np.float32, (heads, name)
                err = np.abs(got - ref).max()
                assert err <= 1e-5 * np.abs(ref).max(), (heads, name, err)

    def test_retains_no_score_tensor(self):
        rng = np.random.default_rng(42)
        shape = (16, 4, 64, 8)
        q, k, v = (
            Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True) for _ in range(3)
        )
        out, retained, _ = traced_bytes(lambda: L.scaled_dot_attention(q, k, v, 1))
        score_bytes = 16 * 4 * 64 * 64 * 4
        assert retained - out.data.nbytes < score_bytes, retained / score_bytes

    def test_forward_peak_under_chunk_bound(self, monkeypatch):
        rng = np.random.default_rng(43)
        shape = (8, 4, 128, 8)  # output/scores = d_k/n = 1/16; paper-scale parts span 1/21 to 2/9
        score_bytes = 8 * 4 * 128 * 128 * 4
        bound_for_chunk(monkeypatch, 128, 4, 8 * 4 // 4)  # a quarter of the scores
        q, k, v = (
            Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True) for _ in range(3)
        )
        _, _, peak = traced_bytes(lambda: L.scaled_dot_attention(q, k, v, 1))
        assert peak < score_bytes / 2, peak / score_bytes


class TestFullSizeRuleMemory:
    """Peak bytes of the rules that run on whole volumes, against x's own size.

    At [1, 8, 32, 32, 32] float32 x is 1 MiB, large enough that per-array
    overhead does not decide a bound. A full-size rule may allocate its own
    dx and no other array of x's size.
    """

    shape = (1, 8, 32, 32, 32)

    def leaf(self, rng):
        return Tensor(rng.normal(size=self.shape).astype(np.float32), requires_grad=True)

    def test_maxpool_forward_copies_nothing_full_size(self):
        x = self.leaf(np.random.default_rng(60))
        _, _, peak = traced_bytes(lambda: L.maxpool3d(x))
        assert peak <= 0.5 * x.data.nbytes, peak / x.data.nbytes

    def test_maxpool_backward_allocates_only_dx(self):
        rng = np.random.default_rng(61)
        x = self.leaf(rng)
        out = L.maxpool3d(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        _, _, peak = traced_bytes(lambda: out._node.backward_fn(g))
        assert peak <= 1.25 * x.data.nbytes, peak / x.data.nbytes

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batchnorm_backward_allocates_only_dx(self, training):
        rng = np.random.default_rng(62)
        x = self.leaf(rng)
        c = self.shape[1]
        s = L.BatchNorm3dState(
            gamma=Tensor(rng.uniform(0.5, 2.0, size=c).astype(np.float32), requires_grad=True),
            beta=Tensor(rng.normal(size=c).astype(np.float32), requires_grad=True),
            running_mean=np.zeros(c, np.float32),
            running_var=np.ones(c, np.float32),
            training=training,
        )
        out = L.batchnorm3d(x, s)
        g = rng.normal(size=self.shape).astype(np.float32)
        _, _, peak = traced_bytes(lambda: out._node.backward_fn(g))
        assert peak <= 1.25 * x.data.nbytes, peak / x.data.nbytes

    def test_batchnorm_eval_no_grad_holds_only_its_output(self):
        rng = np.random.default_rng(63)
        x = self.leaf(rng)
        c = self.shape[1]
        s = L.BatchNorm3dState(
            gamma=Tensor(rng.uniform(0.5, 2.0, size=c).astype(np.float32), requires_grad=True),
            beta=Tensor(rng.normal(size=c).astype(np.float32), requires_grad=True),
            running_mean=rng.normal(size=c).astype(np.float32),
            running_var=rng.uniform(0.5, 3.0, size=c).astype(np.float32),
        )

        def forward():
            with T.no_grad():
                return L.batchnorm3d(x, s)

        _, _, peak = traced_bytes(forward)
        assert peak <= 1.1 * x.data.nbytes, peak / x.data.nbytes

    # at [1, 8, 32, 32, 32] the pool's ufunc buffers alone add about 0.25 x out.nbytes
    large = (1, 8, 64, 64, 64)

    def test_relu_no_grad_holds_only_its_output(self):
        x = Tensor(np.random.default_rng(64).normal(size=self.large).astype(np.float32), requires_grad=True)

        def forward():
            with T.no_grad():
                return L.relu(x)

        _, _, peak = traced_bytes(forward)
        assert peak <= 1.1 * x.data.nbytes, peak / x.data.nbytes

    def test_maxpool_no_grad_holds_only_its_output(self):
        normal = np.random.default_rng(65).normal(size=self.large).astype(np.float32)
        x = Tensor(np.where(normal > 0, normal, -0.0), requires_grad=True)  # some windows are all -0.0

        def forward():
            with T.no_grad():
                return L.maxpool3d(x)

        out, _, peak = traced_bytes(forward)
        assert peak <= 1.1 * out.data.nbytes, peak / out.data.nbytes


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


class TestMultiHeadAttention:
    def test_single_head_identity_projection(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 4)))
        p = mha_params(4, identity=True)
        want = L.scaled_dot_attention(x, x, x, 1).data
        np.testing.assert_allclose(L.multi_head_attention(x, p, 1).data, want, rtol=1e-5)

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
    """Leaves (x first, then the weights and biases, all requiring grad), the node and its composed reference,
    each a function of the leaves."""
    d = shape[-1]

    def leaf(*s):
        return Tensor(rng.normal(scale=0.4, size=s).astype(dtype), requires_grad=True)

    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    if name == "feed_forward":
        return [x, leaf(d, 4 * d), leaf(4 * d), leaf(4 * d, d), leaf(d)], L.feed_forward, feed_forward_composed

    def node(x, *params):
        return L.multi_head_attention(x, L.AttentionParams(*params), heads)

    def composed(x, wq, wk, wv, wo, bq, bv, bo):
        q, k, v = L.linear(x, wq, bq), T.matmul(x, wk), L.linear(x, wv, bv)
        return L.linear(L.scaled_dot_attention(q, k, v, heads), wo, bo)

    return [x, *(leaf(d, d) for _ in range(4)), *(leaf(d) for _ in range(3))], node, composed


def feed_forward_composed(x, w1, b1, w2, b2):
    return L.linear(L.gelu(L.linear(x, w1, b1)), w2, b2)


SUBLAYERS = ["multi_head_attention", "feed_forward"]


class TestSublayerNodes:
    """The encoder layer's one-node sublayers against their composed references."""

    def test_feed_forward_grad_check(self):
        leaves, node, _ = sublayer_case("feed_forward", np.random.default_rng(80), np.float64, shape=(2, 3, 4))
        coeff = np.random.default_rng(81).normal(size=(2, 3, 4))
        for res in grad_check(lambda *a: (node(*a) * coeff).sum(), leaves, tol=1e-6):
            assert res.passed, res

    def test_attention_grad_check_across_chunk_edge(self, monkeypatch):
        heads = 2
        leaves, node, _ = sublayer_case("multi_head_attention", np.random.default_rng(82), np.float64,
                                        shape=(5, 3, 2 * heads), heads=heads)
        bound_for_chunk(monkeypatch, 3, 8, 2 * heads)
        assert L._score_chunks(np.empty((5, heads, 3, 2))) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        coeff = np.random.default_rng(83).normal(size=(5, 3, 2 * heads))
        for res in grad_check(lambda *a: (node(*a) * coeff).sum(), leaves, tol=1e-6):
            assert res.passed, res

    @pytest.mark.parametrize("name", SUBLAYERS)
    def test_float32_matches_composed(self, name):
        # the forward is the composed one's products and sums, in place; the grads differ in summation order
        results = []
        for i in range(2):
            leaves, node, composed = sublayer_case(name, np.random.default_rng(84), np.float32, shape=(3, 7, 16))
            out = (node, composed)[i](*leaves)
            backward((out * Tensor(np.random.default_rng(85).normal(size=out.shape).astype(np.float32))).sum())
            results.append([out.data, *(t.grad for t in leaves)])
        (out, *grads), (ref, *ref_grads) = results
        assert out.dtype == np.float32 and out.tobytes() == ref.tobytes()
        for leaf, (got, want) in enumerate(zip(grads, ref_grads)):
            assert got.dtype == np.float32 and got.shape == want.shape, leaf
            err = np.abs(got - want).max()
            assert err <= 1e-6 * np.abs(want).max(), (leaf, err / np.abs(want).max())

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
