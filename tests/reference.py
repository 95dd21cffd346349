"""Reference layers that the tests compare the model's one-node layers against.

Each is a composition of the tape's public ops, or a small node whose forward
and backward are direct formulas, and none shares a helper with the node it
checks: a bug in one of `layers`' private helpers would pass both sides of a
comparison with code that ran it too. So the only node of `layers` called here
is `softmax`, and `linear` is the tape's batched `matmul` and `add`. The tests
run these in float64.
"""

from itertools import product

import numpy as np
from scipy.special import erf

from gldn import layers as L
from gldn import tensor as T
from gldn.tensor import Tensor


def conv3d_taps(x, w, b, g):
    """27 shifted tensordot accumulations of the cross-correlation with zero padding 1 and stride 1:
    the forward output and (dx, dw, db) for the output gradient `g`."""
    B, Cin, D, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    acc = np.zeros((w.shape[0], B, D, H, W), dtype=x.dtype)
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i, j, k in product(range(3), repeat=3):
        view = xp[:, :, i : i + D, j : j + H, k : k + W]
        acc += np.tensordot(w[:, :, i, j, k], view, axes=(1, 1))
        dw[:, :, i, j, k] = np.tensordot(g, view, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
        spread = np.tensordot(w[:, :, i, j, k], g, axes=(0, 1))
        dxp[:, :, i : i + D, j : j + H, k : k + W] += spread.transpose(1, 0, 2, 3, 4)
    out = acc.transpose(1, 0, 2, 3, 4) + b.reshape(1, -1, 1, 1, 1)
    return out, dxp[:, :, 1:-1, 1:-1, 1:-1], dw, g.sum(axis=(0, 2, 3, 4))


def conv3d(x, p):
    """`conv3d_taps` as a tape node over x, the kernel and the bias; its output does not depend on g."""
    w, b = p.weight.data, p.bias.data
    zero = np.zeros((x.shape[0], len(w), *x.shape[2:]), x.dtype)
    return T.apply_op(conv3d_taps(x.data, w, b, zero)[0], (x, p.weight, p.bias),
                      lambda g: conv3d_taps(x.data, w, b, g)[1:])


def relu(x):
    """x times a constant mask: the subgradient at 0 is 0."""
    return x * Tensor((x.data > 0).astype(x.dtype))


def batchnorm3d(x, s):
    """Per-channel BatchNorm of [B, C, D, H, W] x as tensor ops. Train mode normalizes with the batch's
    biased statistics, then moves the running ones toward them with the unbiased variance; eval mode
    normalizes with the running ones."""
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
    out = xhat * T.reshape(s.gamma, (1, C, 1, 1, 1)) + T.reshape(s.beta, (1, C, 1, 1, 1))
    if s.training:
        n = x.size // C
        s.running_mean += L.MOMENTUM * (mu.data.reshape(C) - s.running_mean)
        s.running_var += L.MOMENTUM * (var.data.reshape(C) * (n / (n - 1)) - s.running_var)
    return out


def maxpool3d(x):
    """2x2x2 window maximum: x as [..., 8] windows times a constant one-hot of numpy's first argmax,
    summed over the window, so the gradient goes to each window's first maximum."""
    B, C, D, H, W = x.shape
    cube = T.reshape(x, (B, C, D // 2, 2, H // 2, 2, W // 2, 2))
    windows = T.reshape(T.permute_axes(cube, (0, 1, 2, 4, 6, 3, 5, 7)), (B, C, D // 2, H // 2, W // 2, 8))
    onehot = np.eye(8, dtype=x.dtype)[windows.data.argmax(axis=-1)]
    return T.tsum(windows * Tensor(onehot), axis=-1)


def cnn_block(x, conv, bn):
    """The paper's CNN block: conv, relu, BatchNorm, max pool."""
    return maxpool3d(batchnorm3d(relu(conv3d(x, conv)), bn))


def layer_norm(x, gamma, beta):
    """LayerNorm over the last axis as tensor ops."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / T.sqrt(var + L.EPS) * gamma + beta


def gelu(x):
    """Exact GELU x cdf(x) as a node: scipy's erf, and the slope cdf(x) + x pdf(x)."""
    cdf = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    slope = cdf + x.data * np.exp(-0.5 * x.data**2) / np.sqrt(2.0 * np.pi)
    return T.apply_op(x.data * cdf, (x,), lambda g: (g * slope,))


def attention(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v over the last two axes."""
    r = k.ndim
    kt = T.permute_axes(k, tuple(range(r - 2)) + (r - 1, r - 2))
    return T.matmul(L.softmax(T.matmul(q, kt) * float(1.0 / np.sqrt(q.shape[-1]))), v)


def attention_per_head(q, k, v, heads):
    """`attention` on explicit head-split copies of [*, n, d] operands, the heads concatenated back to
    [*, n, d]."""
    *lead, n, d = q.shape
    a = len(lead)
    perm = tuple(range(a)) + (a + 1, a, a + 2)  # [*, n, h, d_k] <-> [*, h, n, d_k]
    q, k, v = (T.permute_axes(T.reshape(t, (*lead, n, heads, d // heads)), perm) for t in (q, k, v))
    return T.reshape(T.permute_axes(attention(q, k, v), perm), (*lead, n, d))


def linear(x, w, b):
    """x [*, in] @ w [in, out] + b as a batched product, w broadcast over x's leading axes, and an add."""
    return T.matmul(x, w) + b


def multi_head_attention(x, wq, wk, wv, wo, bq, bv, bo, heads):
    """Multi-head attention of x's projections, with no key bias, then the output projection."""
    q, k, v = linear(x, wq, bq), T.matmul(x, wk), linear(x, wv, bv)
    return linear(attention_per_head(q, k, v, heads), wo, bo)


def feed_forward(x, w1, b1, w2, b2):
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def float64_leaf(t):
    """A float64 copy of tensor t that requires grad."""
    return Tensor(t.data.astype(np.float64), requires_grad=True)


def float64_copies(x, conv, bn):
    """Float64 copies of a CNN block's input, conv parameters and BatchNorm state, their tensors leaves that
    require grad and their running statistics the reference's own to update."""
    conv64 = L.Conv3dParams(float64_leaf(conv.weight), float64_leaf(conv.bias))
    bn64 = L.BatchNorm3dState(float64_leaf(bn.gamma), float64_leaf(bn.beta), bn.running_mean.astype(np.float64),
                              bn.running_var.astype(np.float64), bn.training)
    return float64_leaf(x), conv64, bn64


def assert_close(got, want, tol, name=""):
    """Each array in `got` has the shape of its `want` and lies within tol times that array's largest entry
    of it."""
    for i, (a, w) in enumerate(zip(got, want, strict=True)):
        assert a.shape == w.shape, (name, i, a.shape, w.shape)
        err = np.abs(a.astype(np.float64) - w).max()
        assert err <= tol * np.abs(w).max(), (name, i, err / np.abs(w).max())
