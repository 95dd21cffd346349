"""Neural-network layers for both streams: the CNN block and the transformer encoder layer.

Each layer the model runs is one tape node with a hand-written backward. The
CNN block, `conv_relu_bn_pool` (3x3x3 conv, relu, BatchNorm, 2x2x2 max pool),
lowers the conv to GEMMs over depth slabs: im2col for the forward pass and
dW, col2im for dX, all through one tap-view helper, with each slab's column
buffer held under a fixed byte bound. It pools inside the conv's slabs,
reading the 8 window positions as strided views and keeping a uint8 argmax, so
the full-resolution conv output is never built. That is exact: relu and
BatchNorm are monotone maps per channel, and so is their rounding, so they
commute with the window max, which becomes a min where BatchNorm's gamma < 0.
In train mode the node gathers the batch statistics slab by slab; in eval
mode it pools first and takes relu of the pooled voxels alone. Either way it
normalizes only the pooled voxels, keeps no full-resolution array and
recomputes each slab's conv in backward. BatchNorm's formulas live in it alone.

Every weight product of the transformer stream is x W + b, written once:
`_affine` runs it on arrays as one GEMM over x's rows, in the forward and in
every backward recompute, and `_affine_grads` returns dX, dW and db. `linear`
is one node built on them; both sublayers call them too. `layer_norm`
normalizes each row over the last axis with the closed-form backward;
statistics that are not finite raise, as the CNN block's batch statistics do.
Each sublayer of the encoder layer is one node that keeps its input and
recomputes the rest. `multi_head_attention` projects x to q, k and v,
multiplies the heads as strided views of the [*, n, d] projections in chunks
under the same byte bound and projects the joined heads out; it keeps x, the
joined heads and one log-sum-exp per query row, not q, k, v or the n x n
weights. `feed_forward` is linear(gelu(linear(x))) and keeps x alone. The
encoder layer tapes no reshape or transpose. The tests compare each node with
an independent composition of tape ops in float64 (`tests/reference.py`).

A node computes on its inputs' arrays and builds no Tensor but its output,
which `apply_op` checks for non-finite values, naming the node. Inside a node
only the CNN block's conv slabs and attention's score chunks are checked: an
-inf score would get softmax weight 0 unseen. Saved state is built only when
the node is recorded (`tensor.recording`): the CNN block's argmax and x-hat,
and attention's log-sum-exp. GELU's erf is the standard library's `math.erf`
in float64 and a blocked float32 rational in float32.

Outputs and gradients are specified as values: the sign of an exact zero is
unspecified, and relu and the pool may write either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy import matmul  # by name, so a test can count the transformer stream's products by patching it

from .errors import DimensionError, NumericsError
from .tensor import Tensor, _fit, _normalize_axes, _unbroadcast, all_finite, apply_op, check_finite, is_integer
from .tensor import recording

SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
EPS = 1e-5  # variance floor of BatchNorm and LayerNorm
MOMENTUM = 0.1  # BatchNorm running-statistics update rate
_erf = np.vectorize(math.erf, otypes=[np.float64])  # float64 erf, elementwise


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

# Upper bound on one transient block: a conv depth slab's column buffer, or
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


def _conv_operands(x: Tensor, p: Conv3dParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Check x against the kernel and the bias. Returns padded x, the [C_out, C_in*27] kernel
    matrix, the bias as a [C_out, 1, 1, 1] column and the column bytes of one output depth,
    the slab unit of `_chunks`."""
    if x.ndim != 5:
        raise DimensionError(f"conv_relu_bn_pool expects [B,C,D,H,W], got {x.shape}")
    B, c_in, D, H, W = x.shape
    if p.weight.shape != (*p.weight.shape[:1], c_in, 3, 3, 3) or p.bias.shape != p.weight.shape[:1]:
        raise DimensionError(f"conv_relu_bn_pool channel mismatch: with {c_in} input channels the kernel must be "
                             f"[C_out, {c_in}, 3, 3, 3] and the bias [C_out], got {p.weight.shape} and {p.bias.shape}")
    c_out = p.weight.shape[0]
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    wm, bias = p.weight.data.reshape(c_out, c_in * 27), p.bias.data.reshape(c_out, 1, 1, 1)
    return xp, wm, bias, 27 * c_in * B * H * W * x.data.itemsize


def _conv_slab(wm: np.ndarray, xp: np.ndarray, d0: int, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """Output depths [d0, d1) of the bias-free conv: one GEMM, seen as [B, C_out, d1-d0, H, W], and the
    slab's columns that the GEMM read."""
    B, _, _, H, W = xp.shape
    cols = _cols(xp, d0, d1)
    y = wm @ cols
    return y.reshape(len(wm), B, d1 - d0, H - 2, W - 2).transpose(1, 0, 2, 3, 4), cols


def _relu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(a, 0), into `out` if given: the one relu of the package, whose zeros may have either sign."""
    return np.maximum(a, 0, out=out)


def _windows(a: np.ndarray) -> list[np.ndarray]:
    """The 8 strided views a[:, :, i::2, j::2, k::2] of the 2x2x2 windows, in (i, j, k) order."""
    return [a[:, :, i::2, j::2, k::2] for i, j, k in product(range(2), repeat=3)]


def _window_max(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 2x2x2 window maximum of `a`, written into `out`."""
    views = _windows(a)
    np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def _first_argmax(a: np.ndarray, top: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """Write into uint8 `arg` the first window position, in `_windows` order, where `a` attains the
    window maximum `top`."""
    hit = np.empty(top.shape, bool)
    for t, view in reversed(list(enumerate(_windows(a)))):  # written last, the lowest position wins
        np.equal(view, top, out=hit)
        np.copyto(arg, t, where=hit)
    return arg


def _pooled_shape(shape) -> tuple[int, ...]:
    """The [B, C, D/2, H/2, W/2] shape of a 2x2x2 pool over `shape`; an odd extent raises."""
    D, H, W = shape[2:]
    if D % 2 or H % 2 or W % 2:
        raise DimensionError(f"conv_relu_bn_pool needs extents divisible by 2, got {(D, H, W)}")
    return (*shape[:2], D // 2, H // 2, W // 2)


def _batchnorm_checks(shape, s: BatchNorm3dState) -> tuple[int, int]:
    """Check BatchNorm state `s` for a [B, C, D, H, W] input of `shape`, in both modes, so a bad array
    raises before train mode updates the statistics. Returns C and the voxel count per channel."""
    C, n = shape[1], shape[0] * math.prod(shape[2:])
    if s.training and n < 2:
        raise DimensionError("conv_relu_bn_pool train mode needs >= 2 elements per channel")
    for name, a in (("gamma", s.gamma.data), ("beta", s.beta.data), ("running_mean", s.running_mean),
                    ("running_var", s.running_var)):
        if np.shape(a) != (C,):
            raise DimensionError(f"conv_relu_bn_pool {name} must hold one entry per channel, [{C}], got shape "
                                 f"{np.shape(a)}")
    return C, n


def _check_stats(mean: np.ndarray, var: np.ndarray, op: str):
    """Raise NumericsError naming forward op `op` if a mean or variance it normalizes with is NaN or infinite."""
    if not (all_finite(mean) and all_finite(var)):
        raise NumericsError(f"non-finite batch statistics in forward op {op} (statistics shape {mean.shape}, "
                            f"dtype {mean.dtype})")


def conv_relu_bn_pool(x: Tensor, conv: Conv3dParams, bn: BatchNorm3dState) -> Tensor:
    """maxpool(batchnorm(relu(conv3d(x, conv)), bn)), the paper's CNN block, as one node.

    The forward walks the conv in slabs of an even number of output depths and
    pools each slab on its own, after its bias and a non-finite check. Train
    mode takes relu of every voxel, joins the slab's per-channel count, mean and
    M2 to the batch's in float64 (Chan et al. 1979) and pools sign(gamma) * relu.
    Eval mode folds sign(gamma) into the kernel and the bias and takes relu of
    the pooled voxels alone, after the window max, with which it commutes. When
    recording, the pool keeps its uint8 first argmax; in eval mode it differs
    from relu's only where the winning conv value is <= 0, where the relu mask
    zeroes the gradient either way. BatchNorm is monotone per channel, so only
    the pooled voxels are normalized; its output is checked there alone. Train
    mode normalizes with the batch statistics (biased variance) and moves the
    running ones toward them by MOMENTUM, with the unbiased variance (Ioffe &
    Szegedy 2015). Eval mode takes the running ones as constants.

    The node keeps padded x, the argmax, the pooled x-hat and per-channel
    constants, and no full-resolution array. Backward recomputes each slab's
    conv (Chen et al. 2016) and forms dy = mask (a r + b), plus c g at each
    window's argmax, where a = b = 0 with constant statistics. dW is dy times
    the columns the recomputed conv built, so each slab's columns are built
    once; they are dropped before dX folds W^T dy back through the tap views of
    the padded gradient (col2im). Backward reads the kernel as it is when it
    runs, so it must run before an in-place update of the weights.
    """
    xp, wm, bias, unit = _conv_operands(x, conv)
    conv_shape = (x.shape[0], len(wm), *x.shape[2:])
    C, n = _batchnorm_checks(conv_shape, bn)
    gamma, beta = (t.data.reshape(1, C, 1, 1, 1) for t in (bn.gamma, bn.beta))
    sign = np.where(gamma < 0, -1, 1).astype(x.dtype)
    record = recording(x, conv.weight, conv.bias, bn.gamma, bn.beta)
    xhat = np.empty(_pooled_shape(conv_shape), x.dtype)  # sign * window max, then x-hat
    arg = np.empty(xhat.shape, np.uint8) if record else None
    slabs = _chunks(xhat.shape[2], 2 * unit)  # pooled depth ranges
    count, mean64, m2 = 0, np.zeros(C), np.zeros(C)  # the batch's, over the slabs so far
    # the forward's kernel and bias; backward recomputes the unsigned conv
    fwd_wm, fwd_bias = (wm, bias) if bn.training else (wm * sign.reshape(C, 1), bias * sign.reshape(bias.shape))
    for h0, h1 in slabs:
        y = _conv_slab(fwd_wm, xp, 2 * h0, 2 * h1)[0]
        y += fwd_bias
        check_finite(y, "conv_relu_bn_pool", conv_shape)
        if bn.training:
            _relu(y, y)
            r = y.transpose(1, 0, 2, 3, 4).reshape(C, -1)  # the GEMM's [C, m] layout, a view
            m = r.shape[1]
            with np.errstate(over="ignore", invalid="ignore"):  # the statistics are checked below
                slab_mean = r.sum(axis=1, dtype=np.float64) / m
                dev = np.subtract(r, slab_mean[:, None], dtype=np.float64)
                delta = slab_mean - mean64
                mean64 += delta * (m / (count + m))
                m2 += np.einsum("ij,ij->i", dev, dev) + delta**2 * (count * m / (count + m))
            count += m
            del dev  # so no two slabs' float64 copies are alive at once
            y *= sign
        _window_max(y, xhat[:, :, h0:h1])
        if record:
            _first_argmax(y, xhat[:, :, h0:h1], arg[:, :, h0:h1])
    xhat *= sign  # each window's kept voxel, relu'd in train mode
    if not bn.training:
        _relu(xhat, xhat)
    stats = (mean64, m2 / count) if bn.training else (bn.running_mean, bn.running_var)
    with np.errstate(over="ignore"):  # a batch statistic past float32's range is checked next
        mean, var = (a.astype(x.dtype).reshape(gamma.shape) for a in stats)
    if bn.training:
        _check_stats(mean, var, "conv_relu_bn_pool")
        bn.running_mean += MOMENTUM * (mean.reshape(C) - bn.running_mean)  # detached; single writer: training
        bn.running_var += MOMENTUM * (var.reshape(C) * (n / (n - 1)) - bn.running_var)
    std = np.sqrt(var + EPS)
    xhat -= mean
    xhat /= std
    out = np.multiply(xhat, gamma, out=np.empty_like(xhat) if record else xhat)
    out += beta
    c = gamma / std

    def bwd(g):
        dgamma, dbeta = (g * xhat).sum(axis=(0, 2, 3, 4)), g.sum(axis=(0, 2, 3, 4))
        a = b = np.zeros_like(c)
        if bn.training:  # the paths through the batch mean and variance
            a = c * dgamma.reshape(c.shape) / (-n * std)
            b = c * dbeta.reshape(c.shape) / -n - a * mean
        cg = g * c
        B, c_in, _, H, W = xp.shape
        dw, db = np.zeros_like(wm), np.zeros(C, wm.dtype)
        dxp = np.zeros_like(xp) if x.requires_grad else None  # no dX for a constant input
        for h0, h1 in slabs:
            d0, d1 = 2 * h0, 2 * h1
            dy, cols = _conv_slab(wm, xp, d0, d1)
            dy += bias
            mask = dy > 0
            dy *= a  # a r + b: r = y wherever the mask passes
            dy += b
            for t, view in enumerate(_windows(dy)):  # a masked add into a strided view is 4x slower
                view += cg[:, :, h0:h1] * (arg[:, :, h0:h1] == t)
            dy *= mask
            gs = dy.transpose(1, 0, 2, 3, 4).reshape(C, -1)  # the GEMM's [C, m] layout, a view
            del dy, mask
            dw += gs @ cols.T
            del cols  # so col2im's [C_in*27, m] product is the slab's only column-sized buffer
            db += gs.sum(axis=1)
            if dxp is None:
                continue
            dcols = (wm.T @ gs).reshape(c_in, 27, B, d1 - d0, H - 2, W - 2)
            for t, view in enumerate(_taps(dxp, d0, d1)):
                view += dcols[:, t].transpose(1, 0, 2, 3, 4)
        dx = None if dxp is None else np.ascontiguousarray(dxp[:, :, 1:-1, 1:-1, 1:-1])
        return dx, dw.reshape(conv.weight.shape), db, dgamma, dbeta

    return apply_op(out, (x, conv.weight, conv.bias, bn.gamma, bn.beta), bwd)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x [*, in] @ w [in, out] (+ b, in place) as one GEMM over x's rows, in a fresh buffer: the forward and the
    backward recompute of every weight product. The caller checks the shapes, and `apply_op` the node's output."""
    y = matmul(x.reshape(-1, x.shape[-1]), w)
    if b is not None:
        y += b
    return y.reshape(x.shape[:-1] + y.shape[-1:])


def _affine_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, need_dx: bool = True):
    """dX [*, in] (None unless `need_dx`), dW and db of x @ w + b for its gradient g, over x's folded rows."""
    g2 = g.reshape(-1, g.shape[-1])
    dx = (g2 @ w.T).reshape(x.shape) if need_dx else None
    return dx, x.reshape(-1, x.shape[-1]).T @ g2, g2.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [*, in] @ w [in, out] + b [out] as one node, `_affine` forward and `_affine_grads` backward. A constant
    x gets no dX. Backward reads w as it is when it runs, so it must run before an in-place update of w."""
    if x.ndim < 2 or w.ndim != 2 or w.shape[0] != x.shape[-1] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear needs x [*, in], w [in, out] and b [out], got {x.shape}, {w.shape}, {b.shape}")
    xd, wd, need_dx = x.data, w.data, x.requires_grad
    return apply_op(_affine(xd, wd, b.data), (x, w, b), lambda g: _affine_grads(g, xd, wd, need_dx))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """gamma * (x - mu) / sqrt(var + EPS) + beta over the last axis, as one node (Ba et al. 2016).

    mu and var are the biased statistics of each row, and the closed-form
    backward differentiates through them. gamma and beta broadcast against x.
    The node keeps x-hat beside the output.
    """
    axes = _normalize_axes(-1, x.shape)
    mean = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mean
    out_data = np.square(xhat)  # the variance's scratch, then the output
    var = out_data.mean(axis=axes, keepdims=True)
    _check_stats(mean, var, "layer_norm")
    std = np.sqrt(var + EPS)
    xhat /= std
    _fit(np.multiply, xhat, gamma.data, out_data)  # a gamma or beta that x cannot take raises here
    _fit(np.add, out_data, beta.data, out_data)

    def bwd(g):
        gx = g * xhat  # the one full-size buffer: dgamma is reduced from it, then it becomes dx
        dgamma = _unbroadcast(gx, gamma.shape).copy()  # a copy even where nothing was summed
        dbeta = _unbroadcast(g, beta.shape)
        np.multiply(g, gamma.data, out=gx)
        m2 = (gx * xhat).mean(axis=axes, keepdims=True)
        gx -= gx.mean(axis=axes, keepdims=True)
        gx -= xhat * m2
        gx /= std
        return gx, dgamma, dbeta

    return apply_op(out_data, (x, gamma, beta), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted; rows sum to 1. The rule reads only y."""
    (axis,) = _normalize_axes(-1, x.shape)
    y = x.data - x.data.max(axis=axis, keepdims=True)  # a fresh buffer, so every later step runs in place
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        dx = g - (g * y).sum(axis=axis, keepdims=True)
        dx *= y
        return (dx,)

    return apply_op(y, (x,), bwd)


# Float32 erf(z) ~ z P(z^2) / Q(z^2) on z clipped to [-4, 4], where float32 erf is +-1: Eigen's
# and XLA's float32 rational, highest power first, within 4.4e-7 of erf over [-6, 6].
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
          -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
          -1.42647390514189e-02)
_ERF_BLOCK = 32 << 10  # elements per block, so a block's scratch arrays stay in cache


def _horner(z2: np.ndarray, coef: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients `coef` (highest power first) at z2, in `out`."""
    np.multiply(z2, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= z2
    out += coef[-1]
    return out


def _phi32(x: np.ndarray) -> np.ndarray:
    """The normal cdf 0.5 (1 + erf(x / sqrt(2))) of 1-d float32 x, erf from _ERF_P / _ERF_Q.

    In-place float32 ufuncs over blocks of _ERF_BLOCK elements, so no float64
    temporary is made.
    """
    phi = np.empty(x.shape, np.float32)
    z2, p, q = (np.empty(min(_ERF_BLOCK, x.size), np.float32) for _ in range(3))
    for i0 in range(0, x.size, _ERF_BLOCK):
        z = phi[i0 : i0 + _ERF_BLOCK]
        m = len(z)
        np.multiply(x[i0 : i0 + m], 1.0 / SQRT2, out=z)
        np.clip(z, -4.0, 4.0, out=z)
        np.multiply(z, z, out=z2[:m])
        z *= _horner(z2[:m], _ERF_P, p[:m])
        z /= _horner(z2[:m], _ERF_Q, q[:m])
        z += 1.0
        z *= 0.5
    return phi


def _gelu_cdf(xf: np.ndarray) -> np.ndarray:
    """The normal cdf of flat x, in a fresh buffer: `_phi32` in float32, `math.erf` per element in float64."""
    return _phi32(xf) if xf.dtype == np.float32 else 0.5 * (1.0 + _erf(xf / SQRT2))


def _gelu_slope(xf: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU's slope cdf(x) + x pdf(x) at flat x, from its cdf, in `out`."""
    np.multiply(xf, -0.5, out=out)
    out *= xf
    np.exp(out, out=out)
    out *= INV_SQRT_2PI  # the pdf
    out *= xf
    out += cdf
    return out


def _split(a: np.ndarray, heads: int) -> np.ndarray:
    """[*, n, d] -> [G, heads, n, d_k], a view of a's buffer."""
    n, d = a.shape[-2:]
    return a.reshape(-1, n, heads, d // heads).swapaxes(1, 2)


def _score_chunks(qh: np.ndarray) -> list[slice]:
    """Chunks of the sequences of [G, heads, n, d_k] views whose [g, heads, n, n] score block fits in
    _CHUNK_BYTES."""
    G, heads, n, _ = qh.shape
    return [slice(*r) for r in _chunks(G, heads * n * n * qh.itemsize)]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads, record: bool):
    """The forward chunk loop of multi-head attention over equal [*, n, d] arrays. Returns the joined
    heads [*, n, d] and, when `record`, the [G, heads, n, 1] log-sum-exp of each query row, else None.
    Both products multiply the strided head views with no copy; only the scores are checked here."""
    d = q.shape[-1]
    if not is_integer(heads) or heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    qh, kh, vh = (_split(a, heads) for a in (q, k, v))
    scale = float(1.0 / np.sqrt(d // heads))  # a Python float, so float32 scores stay float32
    out = np.empty(q.shape, q.dtype)
    outh = _split(out, heads)
    lse = np.empty(qh.shape[:3] + (1,), q.dtype) if record else None
    for c in _score_chunks(qh):
        s = matmul(qh[c], np.swapaxes(kh[c], -1, -2))
        check_finite(s, "multi_head_attention", qh.shape[:3] + qh.shape[2:3])  # all [G, heads, n, n] scores
        s *= scale
        top = s.max(axis=-1, keepdims=True)
        s -= top
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        s /= total
        outh[c] = matmul(s, vh[c])
        if record:
            lse[c] = top + np.log(total)
        del s  # so no two chunks' score blocks are alive at once
    return out, lse


def _attend_grads(q, k, v, out, lse, g, heads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dQ, dK and dV, each [*, n, d], of `_attend`'s output `out` for its gradient g. Each chunk's weights
    are recomputed from q, k and the log-sum-exp, so no n x n array outlives its chunk."""
    qh, kh, vh, outh, gh = (_split(a, heads) for a in (q, k, v, out, g))
    scale = float(1.0 / np.sqrt(qh.shape[-1]))
    grads = tuple(np.empty(q.shape, q.dtype) for _ in range(3))
    dq, dk, dv = (_split(a, heads) for a in grads)
    for c in _score_chunks(qh):
        p = np.matmul(qh[c], np.swapaxes(kh[c], -1, -2))
        p *= scale
        p -= lse[c]
        np.exp(p, out=p)
        dv[c] = np.matmul(np.swapaxes(p, -1, -2), gh[c])
        ds = np.matmul(gh[c], np.swapaxes(vh[c], -1, -2))
        ds -= (gh[c] * outh[c]).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dq[c] = np.matmul(ds, kh[c])
        dk[c] = np.matmul(np.swapaxes(ds, -1, -2), qh[c])
        del p, ds
    return grads


def multi_head_attention(x: Tensor, p: AttentionParams, heads: int) -> Tensor:
    """Multi-head softmax(Q K^T / sqrt(d_k)) V of q = x Wq + bq, k = x Wk and v = x Wv + bv, with the heads
    joined and projected by Wo and bo, for x [*, n, d], as one node.

    d splits into `heads` heads of d_k = d / heads (Vaswani et al. 2017), read
    as strided [G, heads, n, d_k] views of the [*, n, d] projections with no
    copy (Dao et al. 2022); the joined heads are written through the same
    views. The forward runs the projections through `_affine` and `_attend`
    between them; q, k and v are dropped before the output projection.
    `_attend` walks the G sequences in chunks whose [g, heads, n, n] score
    block fits in _CHUNK_BYTES. When recording, the node keeps x, the joined
    heads and one log-sum-exp per query row. Backward recomputes q, k and v
    from x with the forward's `_affine`, and `_attend_grads` recomputes each
    chunk's weights from them and the log-sum-exp (Rabe & Staats 2021), so no
    n x n array outlives its chunk; `_affine_grads` forms each projection's
    gradients (Chen et al. 2016; Korthikanti et al. 2022). Backward reads the
    weights as they are when it runs: it must precede an in-place update.
    """
    weights, biases = (p.wq, p.wk, p.wv, p.wo), (p.bq, p.bv, p.bo)
    d = x.shape[-1] if x.ndim >= 2 else None
    if d is None or any(w.shape != (d, d) for w in weights) or any(b.shape != (d,) for b in biases):
        raise DimensionError(f"multi_head_attention on x [*, n, d] needs [d, d] weights and [d] biases, got x "
                             f"{x.shape}, weights {[w.shape for w in weights]}, biases {[b.shape for b in biases]}")
    xd, wq, wk, wv, wo, bq, bv, bo = (t.data for t in (x, *weights, *biases))
    q, k, v = _affine(xd, wq, bq), _affine(xd, wk), _affine(xd, wv, bv)
    joined, lse = _attend(q, k, v, heads, recording(x, *weights, *biases))
    del q, k, v
    out = _affine(joined, wo, bo)

    def bwd(g):
        dj, dwo, dbo = _affine_grads(g, joined, wo)
        q, k, v = _affine(xd, wq, bq), _affine(xd, wk), _affine(xd, wv, bv)
        grads = _attend_grads(q, k, v, joined, lse, dj, heads)
        del q, k, v, dj
        (dx, dwq, dbq), (dxk, dwk, _), (dxv, dwv, dbv) = map(_affine_grads, grads, (xd,) * 3, (wq, wk, wv))
        dx += dxk
        dx += dxv
        return dx, dwq, dwk, dwv, dwo, dbq, dbv, dbo

    return apply_op(out, (x, *weights, *biases), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) for x [*, d], as one node.

    GELU is exact: 0.5 h (1 + erf(h / sqrt(2))) (Hendrycks & Gimpel 2016),
    with `math.erf` per element in float64 and `_phi32` in float32, within
    1e-6 max(1, |h|) of the float64 GELU. The forward runs both layers
    through `_affine` and writes GELU into the hidden buffer, so a non-finite
    h reaches the checked output. When recording, the node keeps only x:
    backward recomputes h with the forward's `_affine`, then GELU's slope
    cdf(h) + h pdf(h) for dh and its value, in h's buffer, for dW2 (Chen et
    al. 2016); `_affine_grads` forms both layers' gradients. Backward reads
    the weights as they are when it runs: it must precede an in-place update.
    """
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != x.shape[-1]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise DimensionError(f"feed_forward on x [*, d] needs w1 [d, h], b1 [h], w2 [h, m] and b2 [m], got x "
                             f"{x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} and b2 {b2.shape}")
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    h = _affine(xd, w1d, b1d)
    hf = h.reshape(-1)
    hf *= _gelu_cdf(hf)
    out = _affine(h, w2d, b2.data)

    def bwd(g):
        h = _affine(xd, w1d, b1d)
        hf = h.reshape(-1)
        cdf = _gelu_cdf(hf)
        slope = _gelu_slope(hf, cdf, np.empty_like(hf)).reshape(h.shape)
        hf *= cdf  # h becomes GELU(h): h, the slope and dh are the most [N, h] buffers alive at once
        del hf, cdf
        dh, dw2, db2 = _affine_grads(g, h, w2d)
        dh *= slope
        del h, slope
        return (*_affine_grads(dh, xd, w1d), dw2, db2)

    return apply_op(out, (x, w1, b1, w2, b2), bwd)


def transformer_encoder_layer(x: Tensor, p: EncoderLayerParams, heads: int) -> Tensor:
    x = x + multi_head_attention(layer_norm(x, p.ln1_gamma, p.ln1_beta), p.attn, heads)
    return x + feed_forward(layer_norm(x, p.ln2_gamma, p.ln2_beta), p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 5:
        raise DimensionError(f"global_avg_pool expects [B,C,D,H,W], got {x.shape}")
    return x.mean(axis=(2, 3, 4))
