"""Neural-network layers for both streams: 3D conv stack and transformer parts.

Convolution and pooling are fused primitives with hand-written backward rules
(the hot path). The 3x3x3 convolution is lowered to GEMMs over depth slabs:
im2col for the forward pass and dW, col2im for dX, all through one tap-view
helper, with each slab's column buffer held under a fixed byte bound.
BatchNorm and LayerNorm share one `normalize` primitive with the closed-form
backward; they differ only in the reduced axes and where the statistics come
from. Attention and the encoder layer are composed from tensor primitives so
their gradients come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import erf

from .errors import DimensionError
from .tensor import Tensor, _unbroadcast, apply_op, matmul, permute_axes, reshape

SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


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
    eps: float = 1e-5
    momentum: float = 0.1
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

    @property
    def head_dim(self) -> int:
        return self.wq.shape[0] // self.heads


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

# Upper bound on one depth slab's column buffer (see conv3d).
_COLS_BYTES = 8 << 20


def _slabs(x: np.ndarray) -> list[tuple[int, int]]:
    """Output depth ranges [d0, d1) whose column buffers fit in _COLS_BYTES.

    A slab holds at least one depth plane, so only a plane larger than the
    bound on its own exceeds it.
    """
    B, c_in, D, H, W = x.shape
    step = max(1, _COLS_BYTES // (27 * c_in * B * H * W * x.itemsize))
    return [(d0, min(d0 + step, D)) for d0 in range(0, D, step)]


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
    transient under _COLS_BYTES so it stays small next to the activations.
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
    slabs = _slabs(x.data)
    out_data = np.empty((B, c_out, D, H, W), dtype=x.data.dtype)
    for d0, d1 in slabs:
        y = (wm @ _cols(xp, d0, d1)).reshape(c_out, B, d1 - d0, H, W)
        np.add(y.transpose(1, 0, 2, 3, 4), bias, out=out_data[:, :, d0:d1])

    def bwd(g):
        dw = np.zeros_like(wm)
        dxp = np.zeros_like(xp) if x.requires_grad else None  # no dX for a constant input
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


def maxpool3d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2x2 window maximum; gradient goes to each window's first argmax."""
    if x.ndim != 5:
        raise DimensionError(f"maxpool3d expects [B,C,D,H,W], got {x.shape}")
    B, C, D, H, W = x.shape
    if D % 2 or H % 2 or W % 2:
        raise DimensionError(f"maxpool3d needs extents divisible by 2, got {(D, H, W)}")
    d2, h2, w2 = D // 2, H // 2, W // 2
    cube = x.data.reshape(B, C, d2, 2, h2, 2, w2, 2)
    flat = np.ascontiguousarray(cube.transpose(0, 1, 2, 4, 6, 3, 5, 7)).reshape(B, C, d2, h2, w2, 8)
    # np.argmax keeps the first index on ties; the index is < 8, and the
    # backward keeps only it, so `flat` is freed once the forward returns
    arg = flat.argmax(axis=-1)[..., None].astype(np.uint8)
    out_data = np.take_along_axis(flat, arg, axis=-1)[..., 0]

    def bwd(g):
        dflat = np.zeros((B, C, d2, h2, w2, 8), x.dtype)
        np.put_along_axis(dflat, arg, g[..., None], axis=-1)
        dcube = dflat.reshape(B, C, d2, h2, w2, 2, 2, 2).transpose(0, 1, 2, 5, 3, 6, 4, 7)
        return (np.ascontiguousarray(dcube).reshape(B, C, D, H, W),)

    return apply_op(np.ascontiguousarray(out_data), (x,), bwd, check=False)


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes, eps: float, stats=None):
    """gamma * (x - mu) / sqrt(var + eps) + beta as one tape node, over `axes`.

    Without `stats`, mu and var are the biased statistics of x over `axes` and
    the backward differentiates through them (Ioffe & Szegedy 2015; Ba et al.
    2016). With `stats=(mean, var)`, arrays broadcastable to x, they are
    constants. gamma and beta broadcast against x. Returns the output and the
    (mean, var) used, reduced with keepdims.
    """
    axes = tuple(a % x.ndim for a in axes)
    if stats is None:
        mean = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - mean
        var = np.square(xhat).mean(axis=axes, keepdims=True)
    else:
        mean, var = (np.asarray(a, dtype=x.dtype) for a in stats)
        xhat = x.data - mean
    std = np.sqrt(var + eps)
    xhat /= std
    out_data = xhat * gamma.data
    out_data += beta.data

    def bwd(g):
        dxhat = g * gamma.data
        if stats is None:
            # the gradients through mu and var, in closed form
            m1 = dxhat.mean(axis=axes, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
            dxhat -= m1
            dxhat -= xhat * m2
        dxhat /= std
        return dxhat, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)

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
    out, (mean, var) = normalize(x, gamma, beta, (0, 2, 3, 4), s.eps, stats)
    if s.training:
        # detached running-stat update (single writer: the training loop)
        s.running_mean += s.momentum * (mean.reshape(C) - s.running_mean)
        s.running_var += s.momentum * (var.reshape(C) * (n / (n - 1)) - s.running_var)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [*, in] @ w [in, out] + b [out]; leading axes ride along."""
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear mismatch: {x.shape} x {w.shape}")
    squeeze = x.ndim == 1
    if squeeze:
        x = reshape(x, (1, x.shape[0]))
    out = matmul(x, w) + b
    if squeeze:
        out = reshape(out, (out.shape[-1],))
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then affine."""
    return normalize(x, gamma, beta, (-1,), eps)[0]


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; rows sum to 1."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return apply_op(y, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    cdf = 0.5 * (1.0 + erf(x.data / SQRT2))
    out_data = x.data * cdf

    def bwd(g):
        pdf = INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return apply_op(out_data, (x,), bwd)


def _swap_last_two(t: Tensor) -> Tensor:
    perm = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return permute_axes(t, perm)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Softmax(Q K^T / sqrt(d_k)) V over the last two axes."""
    if not (q.shape == k.shape == v.shape):
        raise DimensionError(
            f"attention operands must agree, got {q.shape}, {k.shape}, {v.shape}"
        )
    if q.ndim < 2:
        raise DimensionError(f"attention needs [*, n, d_k], got {q.shape}")
    d_k = q.shape[-1]
    scores = matmul(q, _swap_last_two(k)) * (1.0 / np.sqrt(d_k))
    return matmul(softmax(scores), v)


def multi_head_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """Project to q/k/v, attend per head, concatenate heads, project out."""
    if x.ndim < 2:
        raise DimensionError(f"multi_head_attention needs [*, n, d], got {x.shape}")
    n, d = x.shape[-2], x.shape[-1]
    if d != p.wq.shape[0]:
        raise DimensionError(f"token dim {d} does not match projections {p.wq.shape}")
    h, dk = p.heads, p.head_dim
    lead = x.shape[:-2]

    def split_heads(t):
        t = reshape(t, lead + (n, h, dk))
        r = t.ndim
        perm = tuple(range(r - 3)) + (r - 2, r - 3, r - 1)  # [..., h, n, dk]
        return permute_axes(t, perm)

    q = split_heads(linear(x, p.wq, p.bq))
    k = split_heads(matmul(x, p.wk))
    v = split_heads(linear(x, p.wv, p.bv))
    att = scaled_dot_attention(q, k, v)
    r = att.ndim
    att = permute_axes(att, tuple(range(r - 3)) + (r - 2, r - 3, r - 1))  # [..., n, h, dk]
    merged = reshape(att, lead + (n, d))
    return linear(merged, p.wo, p.bo)


def transformer_encoder_layer(x: Tensor, p: EncoderLayerParams) -> Tensor:
    x = x + multi_head_attention(layer_norm(x, p.ln1_gamma, p.ln1_beta), p.attn)
    h = layer_norm(x, p.ln2_gamma, p.ln2_beta)
    h = linear(gelu(linear(h, p.ffn_w1, p.ffn_b1)), p.ffn_w2, p.ffn_b2)
    return x + h


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 5:
        raise DimensionError(f"global_avg_pool expects [B,C,D,H,W], got {x.shape}")
    return x.mean(axis=(2, 3, 4))
