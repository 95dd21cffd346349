"""Neural-network layers for both streams: 3D conv stack and transformer parts.

Convolution and pooling are fused primitives with hand-written backward rules
(the hot path). The 3x3x3 convolution is lowered to GEMMs over depth slabs:
im2col for the forward pass and dW, col2im for dX, all through one tap-view
helper, with each slab's column buffer held under a fixed byte bound. The 2x2x2
max pool reads its 8 window positions as strided views and keeps a uint8 argmax.
BatchNorm and LayerNorm share one `normalize` primitive with the closed-form
backward; they differ only in the reduced axes and where the statistics come
from. Multi-head scaled dot-product attention is one node with a hand-written
backward, like conv3d: it reads heads as strided views of the [*, n, d]
projections, walks them in chunks under the same byte bound, and keeps one
log-sum-exp per query row instead of the n x n weights. The encoder layer
around it is composed from tensor primitives and tapes no reshape or transpose.

Saved state is built only when `tensor.recording` says the node is recorded:
the pool's argmax, BatchNorm eval's x-hat beside its output, GELU's slope and
attention's log-sum-exp. So an eval forward under `no_grad` builds none of
them, and eval BatchNorm holds one full-size array, not two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import erf

from .errors import DimensionError
from .tensor import Tensor, _normalize_axes, _unbroadcast, apply_op, matmul, recording, reshape

SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
EPS = 1e-5  # variance floor of BatchNorm and LayerNorm
MOMENTUM = 0.1  # BatchNorm running-statistics update rate


# -- parameter containers ------------------------------------------------------


@dataclass
class Conv3dParams:
    """3x3x3 kernel, padding 1, stride 1: spatial extents are preserved."""

    weight: Tensor  # [C_out, C_in, 3, 3, 3]
    bias: Tensor  # [C_out]


@dataclass
class BatchNorm3dState:
    gamma: Tensor  # [C]
    beta: Tensor  # [C]
    running_mean: np.ndarray
    running_var: np.ndarray
    training: bool = False


@dataclass
class AttentionParams:
    wq: Tensor  # [d, d]
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor  # [d]; no key bias: softmax over keys cancels q.b_k
    bv: Tensor
    bo: Tensor
    heads: int

    def __post_init__(self):
        d = self.wq.shape[0]
        if d % self.heads != 0:
            raise DimensionError(f"embed dim {d} not divisible by {self.heads} heads")


@dataclass
class EncoderLayerParams:
    """Pre-norm residual block: x + MSA(LN(x)), then x + FFN(LN(x))."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    attn: AttentionParams
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor  # [d, 4d]
    ffn_b1: Tensor
    ffn_w2: Tensor  # [4d, d]
    ffn_b2: Tensor


# -- convolutional stream ------------------------------------------------------

# Upper bound on one transient block: a conv3d depth slab's column buffer, or
# an attention chunk's score block.
_CHUNK_BYTES = 8 << 20


def _chunks(total: int, unit_bytes: int) -> list[tuple[int, int]]:
    """Ranges [i0, i1) over `total` units of `unit_bytes` transient bytes that fit in _CHUNK_BYTES.

    A chunk holds at least one unit, so only a unit larger than the bound on
    its own exceeds it.
    """
    step = max(1, _CHUNK_BYTES // unit_bytes)
    return [(i0, min(i0 + step, total)) for i0 in range(0, total, step)]


def _taps(a: np.ndarray, d0: int, d1: int) -> list[np.ndarray]:
    """The 27 shifted [B, C, d1-d0, H, W] views of padded `a` that output
    depths [d0, d1) read, in kernel (i, j, k) order. Writing through them
    scatters back into `a`."""
    H, W = a.shape[3] - 2, a.shape[4] - 2
    return [
        a[:, :, d0 + i : d1 + i, j : j + H, k : k + W] for i, j, k in product(range(3), repeat=3)
    ]


def _cols(xp: np.ndarray, d0: int, d1: int) -> np.ndarray:
    """im2col of one slab: [C_in*27, B*d*H*W], rows in the weight's (c, i, j, k) order."""
    views = _taps(xp, d0, d1)
    B, c_in = xp.shape[:2]
    cols = np.empty((c_in, 27, B) + views[0].shape[2:], dtype=xp.dtype)
    for t, view in enumerate(views):
        cols[:, t] = view.transpose(1, 0, 2, 3, 4)
    return cols.reshape(c_in * 27, -1)


def conv3d(x: Tensor, p: Conv3dParams) -> Tensor:
    """Cross-correlation with zero padding 1 and stride 1.

    Lowered to one GEMM per output depth slab: the slab's 27 shifted input
    views are unfolded into a column matrix (im2col) and multiplied by the
    [C_out, C_in*27] kernel. Backward walks the same slabs: dW is the output
    gradient times the columns, and dX folds W^T times the gradient back
    through the same tap views of the padded gradient (col2im). The columns
    of a whole volume would take 27x the input's memory; slabs hold that
    transient under _CHUNK_BYTES so it stays small next to the activations.
    """
    if x.ndim != 5:
        raise DimensionError(f"conv3d expects [B,C,D,H,W], got {x.shape}")
    B, c_in, D, H, W = x.shape
    c_out, c_in_w, kd, kh, kw = p.weight.shape
    if (kd, kh, kw) != (3, 3, 3):
        raise DimensionError(f"conv3d kernel must be 3x3x3, got {(kd, kh, kw)}")
    if c_in != c_in_w:
        raise DimensionError(
            f"conv3d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )

    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    wm = p.weight.data.reshape(c_out, c_in * 27)
    bias = p.bias.data.reshape(1, -1, 1, 1, 1)
    slabs = _chunks(D, 27 * c_in * B * H * W * x.data.itemsize)  # output depth ranges
    need_dx = x.requires_grad  # no dX for a constant input
    out_data = np.empty((B, c_out, D, H, W), dtype=x.data.dtype)
    for d0, d1 in slabs:
        y = (wm @ _cols(xp, d0, d1)).reshape(c_out, B, d1 - d0, H, W)
        np.add(y.transpose(1, 0, 2, 3, 4), bias, out=out_data[:, :, d0:d1])

    def bwd(g):
        dw = np.zeros_like(wm)
        dxp = np.zeros_like(xp) if need_dx else None
        for d0, d1 in slabs:
            gs = g[:, :, d0:d1].transpose(1, 0, 2, 3, 4).reshape(c_out, -1)
            dw += gs @ _cols(xp, d0, d1).T
            if dxp is None:
                continue
            dcols = (wm.T @ gs).reshape(c_in, 27, B, d1 - d0, H, W)
            for t, view in enumerate(_taps(dxp, d0, d1)):
                view += dcols[:, t].transpose(1, 0, 2, 3, 4)
        dx = None if dxp is None else np.ascontiguousarray(dxp[:, :, 1:-1, 1:-1, 1:-1])
        db = g.sum(axis=(0, 2, 3, 4))
        return dx, dw.reshape(p.weight.shape), db

    return apply_op(out_data, (x, p.weight, p.bias), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at 0 defined as 0

    def bwd(g):
        return (g * mask,)

    return apply_op(x.data * mask, (x,), bwd, check=False)


def _windows(a: np.ndarray) -> list[np.ndarray]:
    """The 8 strided views a[:, :, i::2, j::2, k::2] of the 2x2x2 windows, in (i, j, k) order."""
    return [a[:, :, i::2, j::2, k::2] for i, j, k in product(range(2), repeat=3)]


def maxpool3d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2x2 window maximum; gradient goes to each window's first argmax.

    Neither direction copies x: the windows are strided views (`_windows`). A
    zero output takes the sign of its window's first zero, the first argmax.
    Only when recording does the node keep a uint8 first argmax; backward copies
    g into each view of a zeroed dx where that window position won.
    """
    if x.ndim != 5:
        raise DimensionError(f"maxpool3d expects [B,C,D,H,W], got {x.shape}")
    D, H, W = x.shape[2:]
    if D % 2 or H % 2 or W % 2:
        raise DimensionError(f"maxpool3d needs extents divisible by 2, got {(D, H, W)}")
    shape, dtype = x.shape, x.dtype
    views = _windows(x.data)
    out_data = views[0].copy()
    for view in views[1:]:
        np.maximum(out_data, view, out=out_data)
    arg = np.empty(out_data.shape, np.uint8) if recording(x) else None  # every entry is written below
    zero = out_data == 0  # np.maximum may keep either zero of a -0.0/+0.0 tie
    fix = zero.any()
    if arg is not None or fix:
        hit = np.empty(out_data.shape, bool)
        for t in range(7, -1, -1):  # written last, the lowest index that attains the max wins
            np.equal(views[t], out_data, out=hit)
            if arg is not None:
                np.copyto(arg, t, where=hit)
            if fix:  # so a zero output is the first argmax's, sign included
                hit &= zero
                np.copyto(out_data, views[t], where=hit)

    def bwd(g):
        dx = np.zeros(shape, dtype)
        for t, view in enumerate(_windows(dx)):
            np.copyto(view, g, where=arg == t)
        return (dx,)

    return apply_op(out_data, (x,), bwd, check=False)


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes, stats=None):
    """gamma * (x - mu) / sqrt(var + EPS) + beta as one tape node, over `axes`.

    Without `stats`, mu and var are the biased statistics of x over `axes` and
    the backward differentiates through them (Ioffe & Szegedy 2015; Ba et al.
    2016). With `stats=(mean, var)`, arrays broadcastable to x, they are
    constants. gamma and beta broadcast against x. Returns the output and the
    (mean, var) used, reduced with keepdims.

    When recording, the node keeps x-hat beside the output. With `stats` and
    not recording, x-hat is computed in the output buffer.
    """
    axes = _normalize_axes(axes, x.ndim)
    if stats is None:
        mean = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - mean
        out_data = np.square(xhat)  # the variance's scratch, then the output
        var = out_data.mean(axis=axes, keepdims=True)
    else:
        mean, var = (np.asarray(a, dtype=x.dtype) for a in stats)
        xhat = x.data - mean
        out_data = np.empty_like(xhat) if recording(x, gamma, beta) else xhat
    std = np.sqrt(var + EPS)
    xhat /= std
    np.multiply(xhat, gamma.data, out=out_data)
    out_data += beta.data
    per_channel = gamma.ndim == x.ndim and all(gamma.shape[a] == 1 for a in axes)  # BatchNorm
    n = math.prod(x.shape[a] for a in axes)

    def bwd(g):
        gx = g * xhat  # the one full-size buffer: dgamma is reduced from it, then it becomes dx
        dgamma = _unbroadcast(gx, gamma.shape).copy()  # a copy even where nothing was summed
        dbeta = _unbroadcast(g, beta.shape)
        if not per_channel:  # LayerNorm: gamma varies along the reduced axis
            np.multiply(g, gamma.data, out=gx)
            if stats is None:
                m2 = (gx * xhat).mean(axis=axes, keepdims=True)
                gx -= gx.mean(axis=axes, keepdims=True)
                gx -= xhat * m2
            gx /= std
        elif stats is None:  # (gamma/std) (g - mean(g) - xhat mean(g xhat)), through mu and var
            np.multiply(xhat, dgamma / n, out=gx)  # the means are the sums dgamma and dbeta over n
            np.subtract(g, gx, out=gx)
            gx -= dbeta / n
            gx *= gamma.data / std
        else:
            np.multiply(g, gamma.data / std, out=gx)
        return gx, dgamma, dbeta

    return apply_op(out_data, (x, gamma, beta), bwd), (mean, var)


def batchnorm3d(x: Tensor, s: BatchNorm3dState) -> Tensor:
    """Per-channel normalization over batch and spatial dims.

    Train mode uses batch statistics (biased variance) and updates running
    stats with the unbiased variance; eval mode normalizes with the stored
    running stats. Affine transform applied last.
    """
    if x.ndim != 5:
        raise DimensionError(f"batchnorm3d expects [B,C,D,H,W], got {x.shape}")
    B, C, D, H, W = x.shape
    if C != s.gamma.shape[0]:
        raise DimensionError(f"batchnorm3d channel mismatch: {C} vs {s.gamma.shape[0]}")
    n = B * D * H * W
    if s.training and n < 2:
        raise DimensionError("batchnorm3d train mode needs >= 2 elements per channel")
    stats = None if s.training else (
        s.running_mean.reshape(1, C, 1, 1, 1), s.running_var.reshape(1, C, 1, 1, 1)
    )
    gamma = reshape(s.gamma, (1, C, 1, 1, 1))
    beta = reshape(s.beta, (1, C, 1, 1, 1))
    out, (mean, var) = normalize(x, gamma, beta, (0, 2, 3, 4), stats)
    if s.training:
        # detached running-stat update (single writer: the training loop)
        s.running_mean += MOMENTUM * (mean.reshape(C) - s.running_mean)
        s.running_var += MOMENTUM * (var.reshape(C) * (n / (n - 1)) - s.running_var)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [*, in] @ w [in, out] + b [out]; leading axes ride along."""
    return matmul(x, w) + b


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then affine."""
    return normalize(x, gamma, beta, (-1,))[0]


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted; rows sum to 1. The rule reads only y."""
    y = x.data - x.data.max(axis=-1, keepdims=True)  # a fresh buffer, so every later step runs in place
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g):
        dx = g - (g * y).sum(axis=-1, keepdims=True)
        dx *= y
        return (dx,)

    return apply_op(y, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt(2))).

    Only when recording does the forward compute the slope cdf(x) + x pdf(x),
    in one buffer; the node keeps that slope and neither x nor the cdf.
    """
    cdf = 0.5 * (1.0 + erf(x.data / SQRT2))
    out_data = x.data * cdf
    if recording(x):
        slope = np.multiply(x.data, -0.5)
        slope *= x.data
        np.exp(slope, out=slope)
        slope *= INV_SQRT_2PI  # the pdf
        slope *= x.data
        slope += cdf

    def bwd(g):
        return (g * slope,)

    return apply_op(out_data, (x,), bwd)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(Q K^T / sqrt(d_k)) V over [*, n, d] operands, as one node.

    d splits into `heads` heads of d_k = d / heads (Vaswani et al. 2017), read
    as strided [G, heads, n, d_k] views of the operands with no copy (Dao et
    al. 2022). The output and the gradients are written through the same
    views, so the result is [*, n, d] with the heads concatenated. The G
    sequences are walked in chunks whose [g, heads, n, n] score block fits in
    _CHUNK_BYTES. When recording, the node keeps q, k, v, the output and one
    log-sum-exp per query row, and backward recomputes each chunk's weights
    from them (Rabe & Staats 2021), so no n x n array outlives its chunk. Both
    forward products go through `matmul`, which checks the scores and the
    weights for non-finite values.
    """
    if q.ndim < 2 or not (q.shape == k.shape == v.shape):
        raise DimensionError(
            f"attention needs equal [*, n, d] operands, got {q.shape}, {k.shape}, {v.shape}"
        )
    shape, (n, d) = q.shape, q.shape[-2:]
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    d_k = d // heads

    def split(a):  # [*, n, d] -> [G, heads, n, d_k], a view of a's buffer
        return a.reshape(-1, n, heads, d_k).swapaxes(1, 2)

    qh, kh, vh = (split(t.data) for t in (q, k, v))
    scale = float(1.0 / np.sqrt(d_k))  # a Python float, so float32 scores stay float32
    chunks = [slice(*r) for r in _chunks(len(qh), heads * n * n * q.data.itemsize)]
    out = np.empty(shape, q.dtype)
    outh = split(out)
    lse = np.empty(qh.shape[:3] + (1,), q.dtype) if recording(q, k, v) else None
    for c in chunks:
        s = matmul(qh[c], np.swapaxes(kh[c], -1, -2)).data
        s *= scale
        top = s.max(axis=-1, keepdims=True)
        s -= top
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        outh[c] = matmul(s, vh[c]).data
        if lse is not None:
            lse[c] = top + np.log(total)
        del s  # so no two chunks' score blocks are alive at once

    def bwd(g):
        g = split(g)
        grads = tuple(np.empty(shape, q.dtype) for _ in range(3))
        dq, dk, dv = (split(a) for a in grads)
        for c in chunks:
            p = np.matmul(qh[c], np.swapaxes(kh[c], -1, -2))
            p *= scale
            p -= lse[c]
            np.exp(p, out=p)
            dv[c] = np.matmul(np.swapaxes(p, -1, -2), g[c])
            ds = np.matmul(g[c], np.swapaxes(vh[c], -1, -2))
            ds -= (g[c] * outh[c]).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            dq[c] = np.matmul(ds, kh[c])
            dk[c] = np.matmul(np.swapaxes(ds, -1, -2), qh[c])
            del p, ds
        return grads

    return apply_op(out, (q, k, v), bwd)


def multi_head_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """Project x [*, n, d] to q/k/v, attend with p.heads heads, project the joined heads out."""
    q, k, v = linear(x, p.wq, p.bq), matmul(x, p.wk), linear(x, p.wv, p.bv)
    return linear(scaled_dot_attention(q, k, v, p.heads), p.wo, p.bo)


def transformer_encoder_layer(x: Tensor, p: EncoderLayerParams) -> Tensor:
    x = x + multi_head_attention(layer_norm(x, p.ln1_gamma, p.ln1_beta), p.attn)
    h = layer_norm(x, p.ln2_gamma, p.ln2_beta)
    h = linear(gelu(linear(h, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)
    return x + h


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 5:
        raise DimensionError(f"global_avg_pool expects [B,C,D,H,W], got {x.shape}")
    return x.mean(axis=(2, 3, 4))
