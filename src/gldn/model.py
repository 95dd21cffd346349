"""Fusion blocks (CNN stream + SPT stream + aggregation), classifier head,
parameter initialization, and the checkpoint container.

A fusion block feeds the same input to a local learning block (two
conv-relu-bn-pool stages) and a global learning block (one SPT), then
concatenates their channel outputs; both streams reduce every spatial extent
to exactly 1/4. The head is global average pooling, a fully connected layer
to the 84 age bins, and a softmax.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import spt as S
from .errors import ConfigError, DimensionError, DomainError, FormatError, NumericsError
from .layers import (
    AttentionParams,
    BatchNorm3dState,
    Conv3dParams,
    EncoderLayerParams,
    conv_relu_bn_pool,
    global_avg_pool,
    linear,
    softmax,
)
from .tensor import Tensor, all_finite, concat, float_dtype, is_integer

N_BINS = 84

CKPT_MAGIC = b"GLDNCKPT"
CKPT_VERSION = 1


# -- configuration -----------------------------------------------------------------

TUPLE_FIELDS = ("input_shape", "llb_channels", "glb_channels", "patch", "embed_dim", "depth", "heads")


@dataclass
class ModelConfig:
    input_shape: tuple[int, int, int] = (32, 48, 32)
    llb_channels: tuple = ((16, 32), (64, 128))
    glb_channels: tuple = (8, 32)
    patch: tuple = (8, 2)
    embed_dim: tuple = (32, 64)
    depth: tuple = (2, 2)
    heads: tuple = (4, 4)
    ablation: str = "full"  # full | no_cnn | no_transformer
    # the paper's CNN block order: a constant, not a field. The benchmark's span replay
    # (bench/spans.py `run_spans`) reads it, and it goes with that replay (ROADMAP item 3)
    conv_order = "relu_bn"

    @property
    def num_blocks(self) -> int:
        return len(self.llb_channels)

    def validate(self):
        for name in TUPLE_FIELDS:
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ConfigError(f"{name} must be a tuple or list, got {getattr(self, name)!r}")
        n = self.num_blocks
        if n == 0:
            raise ConfigError("llb_channels must name at least one fusion block, got none")
        if len(self.input_shape) != 3:
            raise ConfigError(f"input_shape needs 3 extents, got {self.input_shape}")
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in self.llb_channels):
            raise ConfigError(f"llb_channels entries must be channel pairs, got {self.llb_channels}")
        for name in ("glb_channels", "patch", "embed_dim", "depth", "heads"):
            if len(getattr(self, name)) != n:
                raise ConfigError(
                    f"{name} has {len(getattr(self, name))} entries for {n} fusion blocks"
                )
        for name in TUPLE_FIELDS:
            values = getattr(self, name)
            if name == "llb_channels":
                values = [c for pair in values for c in pair]
            if not all(is_integer(v) and v > 0 for v in values):
                raise ConfigError(f"{name} must hold positive integers, got {getattr(self, name)}")
        if self.ablation not in ("full", "no_cnn", "no_transformer"):
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        for extent in self.input_shape:
            if extent % (4**n) != 0:
                raise ConfigError(
                    f"input extent {extent} not divisible by {4**n} ({n} fusion blocks, /4 each)"
                )


# -- parameter store -----------------------------------------------------------------


class ParamStore:
    """Flat named registry, unique names by construction. The checkpoint records are the
    parameters in creation order, then the buffers (BatchNorm running statistics)."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data.astype(self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def he_conv(self, name, c_out, c_in):
        fan_in = c_in * 27
        std = float(np.sqrt(2.0 / fan_in))
        return self._register(name, self.rng.normal(0.0, std, size=(c_out, c_in, 3, 3, 3)))

    def xavier(self, name, fan_in, fan_out):
        limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
        return self._register(name, self.rng.uniform(-limit, limit, size=(fan_in, fan_out)))

    def pos_table(self, name, n_tokens, dim):
        return self._register(name, self.rng.normal(0.0, 0.02, size=(n_tokens, dim)))

    def zeros(self, name, n):
        return self._register(name, np.zeros(n))

    def ones(self, name, n):
        return self._register(name, np.ones(n))

    def buffer(self, name, data: np.ndarray) -> np.ndarray:
        arr = data.astype(self.dtype)
        self.buffers[name] = arr
        return arr


# -- module containers ----------------------------------------------------------------


@dataclass
class CnnBlockParams:
    conv: Conv3dParams
    bn: BatchNorm3dState


@dataclass
class FusionBlock:
    llb: tuple[CnnBlockParams, CnnBlockParams] | None
    glb_cfg: S.SptConfig | None
    glb: list[S.SptPartParams] | None


# -- forward ops ------------------------------------------------------------------------


def cnn_block(x: Tensor, p: CnnBlockParams, order: str) -> Tensor:
    """Conv(3, pad 1), ReLU, BatchNorm, MaxPool(2): the paper's block order.

    `order` must be "relu_bn", `ModelConfig.conv_order`'s one value. The
    block is one node (`conv_relu_bn_pool`) in every mode. It pools inside the
    conv's slabs, so the full-resolution conv output is never built; it checks
    every conv voxel for non-finite values, and BatchNorm's output only at the
    voxels the pool keeps. In eval mode relu runs after the pool, on an eighth
    of the voxels. When recorded, its backward recomputes the conv slab by
    slab (see `layers`).
    """
    if order != "relu_bn":
        raise ConfigError(f"conv_order must be 'relu_bn', got {order!r}")
    return conv_relu_bn_pool(x, p.conv, p.bn)


def aggregate(local: Tensor | None, global_: Tensor | None) -> Tensor:
    """Channel concatenation, local stream first; ablated streams pass None."""
    if local is None and global_ is None:
        raise ConfigError("aggregate of two absent streams")
    if local is None:
        return global_
    if global_ is None:
        return local
    return concat([local, global_], axis=1)


def head_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """GAP -> FC -> softmax: rows are distributions over the 84 age bins."""
    return softmax(linear(global_avg_pool(x), w, b))


# -- the model ---------------------------------------------------------------------------


class GLDN:
    def __init__(self, cfg: ModelConfig, store: ParamStore, blocks, head_w, head_b):
        self.cfg = cfg
        self.store = store
        self.blocks: list[FusionBlock] = blocks
        self.head_w = head_w
        self.head_b = head_b

    # -- forward --

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Each fusion block runs its CNN blocks (the LLB) and its SPT (the GLB) on the same
        input and concatenates their channels; then the head. `training` sets every BatchNorm's mode."""
        if not (isinstance(training, (bool, np.bool_)) or is_integer(training)) or training not in (0, 1):
            raise ConfigError(f"training must be True or False, got {training!r}")
        if not isinstance(x, Tensor):
            raise DomainError(f"model input must be a Tensor, got {type(x).__name__}")
        if x.ndim != 5 or x.shape[1:] != (1, *self.cfg.input_shape):
            raise DimensionError(
                f"model built for [B, 1, D, H, W] input, (D, H, W) = {tuple(self.cfg.input_shape)}; got {x.shape}"
            )
        if x.dtype != self.store.dtype:
            raise DomainError(f"model computes in {self.store.dtype.name}, got {x.dtype.name} input")
        for block in self.blocks:
            local = None if block.llb is None else x
            for cb in block.llb or ():
                cb.bn.training = bool(training)
                local = cnn_block(local, cb, self.cfg.conv_order)
            x = aggregate(local, None if block.glb_cfg is None else S.spt_forward(x, block.glb_cfg, block.glb))
        return head_forward(x, self.head_w, self.head_b)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)

    # -- parameter access --

    def parameters(self) -> dict[str, Tensor]:
        return self.store.params

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: t.data for name, t in self.store.params.items()}
        out.update(self.store.buffers)
        return out


def _build_spt_part(store: ParamStore, prefix: str, part: S.SptPartConfig) -> S.SptPartParams:
    d = part.embed_dim
    enc = []
    for layer_i in range(part.depth):
        lp = f"{prefix}.enc{layer_i}"
        enc.append(
            EncoderLayerParams(
                ln1_gamma=store.ones(f"{lp}.ln1.gamma", d),
                ln1_beta=store.zeros(f"{lp}.ln1.beta", d),
                attn=AttentionParams(
                    wq=store.xavier(f"{lp}.attn.wq", d, d),
                    wk=store.xavier(f"{lp}.attn.wk", d, d),
                    wv=store.xavier(f"{lp}.attn.wv", d, d),
                    wo=store.xavier(f"{lp}.attn.wo", d, d),
                    bq=store.zeros(f"{lp}.attn.bq", d),
                    bv=store.zeros(f"{lp}.attn.bv", d),
                    bo=store.zeros(f"{lp}.attn.bo", d),
                ),
                ln2_gamma=store.ones(f"{lp}.ln2.gamma", d),
                ln2_beta=store.zeros(f"{lp}.ln2.beta", d),
                ffn_w1=store.xavier(f"{lp}.ffn.w1", d, 4 * d),
                ffn_b1=store.zeros(f"{lp}.ffn.b1", 4 * d),
                ffn_w2=store.xavier(f"{lp}.ffn.w2", 4 * d, d),
                ffn_b2=store.zeros(f"{lp}.ffn.b2", d),
            )
        )
    return S.SptPartParams(
        proj_w=store.xavier(f"{prefix}.proj.w", part.token_dim, d),
        proj_b=store.zeros(f"{prefix}.proj.b", d),
        pos=store.pos_table(f"{prefix}.pos", part.n_tokens, d),
        encoder=enc,
        merge_ln_gamma=store.ones(f"{prefix}.merge.ln.gamma", 4 * d),
        merge_ln_beta=store.zeros(f"{prefix}.merge.ln.beta", 4 * d),
        merge_w=store.xavier(f"{prefix}.merge.w", 4 * d, 2 * d),
        merge_b=store.zeros(f"{prefix}.merge.b", 2 * d),
        depatch_w=store.xavier(
            f"{prefix}.depatch.w", 2 * d, part.patch * part.patch * part.out_channels
        ),
        depatch_b=store.zeros(f"{prefix}.depatch.b", part.patch * part.patch * part.out_channels),
    )


def _build_cnn_block(store: ParamStore, prefix: str, c_in: int, c_out: int) -> CnnBlockParams:
    return CnnBlockParams(
        conv=Conv3dParams(
            weight=store.he_conv(f"{prefix}.conv.weight", c_out, c_in),
            bias=store.zeros(f"{prefix}.conv.bias", c_out),
        ),
        bn=BatchNorm3dState(
            gamma=store.ones(f"{prefix}.bn.gamma", c_out),
            beta=store.zeros(f"{prefix}.bn.beta", c_out),
            running_mean=store.buffer(f"{prefix}.bn.running_mean", np.zeros(c_out)),
            running_var=store.buffer(f"{prefix}.bn.running_var", np.ones(c_out)),
        ),
    )


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> GLDN:
    """Validate the whole shape chain, then initialize every parameter.

    He-style normal init for convolutions, Xavier uniform for linear maps,
    zeros for biases/beta, ones for gamma. Deterministic given the seed.
    """
    cfg.validate()
    float_dtype(dtype)
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    store = ParamStore(np.random.default_rng(seed), dtype)
    shape = tuple(cfg.input_shape)
    channels = 1
    blocks = []
    for i in range(cfg.num_blocks):
        prefix = f"blocks.{i}"
        llb = None
        glb_cfg = None
        glb = None
        out_channels = 0
        if cfg.ablation != "no_cnn":
            c1, c2 = cfg.llb_channels[i]
            llb = (
                _build_cnn_block(store, f"{prefix}.llb.cb0", channels, c1),
                _build_cnn_block(store, f"{prefix}.llb.cb1", c1, c2),
            )
            out_channels += c2
        if cfg.ablation != "no_transformer":
            glb_cfg = S.plan_spt(
                shape, channels, cfg.patch[i], cfg.embed_dim[i], cfg.depth[i], cfg.heads[i],
                cfg.glb_channels[i],
            )
            glb = [
                _build_spt_part(store, f"{prefix}.glb.part{j}", part)
                for j, part in enumerate(glb_cfg.parts)
            ]
            out_channels += cfg.glb_channels[i]
        blocks.append(FusionBlock(llb, glb_cfg, glb))
        shape = tuple(s // 4 for s in shape)
        channels = out_channels
    head_w = store.xavier("head.w", channels, N_BINS)
    head_b = store.zeros("head.b", N_BINS)
    return GLDN(cfg, store, blocks, head_w, head_b)


# -- checkpoint container -------------------------------------------------------------


def save_checkpoint(path, model: GLDN):
    """magic, version u32 LE, then {name_len u32, name, rank u32, extents u32*rank, f32 LE data}.

    Written to `<path>.tmp`, then renamed over `path`, so a failed write keeps the old file.
    The records are float32 and finite, so a model of another dtype, or one holding a NaN or an
    inf, is refused before any file is opened.
    """
    if model.store.dtype != np.float32:
        raise ConfigError(f"checkpoint records are float32; a {model.store.dtype.name} model would be rounded")
    arrays = model.state_arrays()
    for name, arr in arrays.items():  # `read_checkpoint` refuses such a record
        if not all_finite(arr):
            raise NumericsError(f"non-finite values in {name}; no checkpoint is written")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<I", CKPT_VERSION))
            write_records(fh, arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def write_records(fh, arrays: dict[str, np.ndarray]):
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse and validate the container; returns name -> float32 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:8] != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:8]!r}", offset=0)
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=8)
    arrays: dict[str, np.ndarray] = {}
    pos = 12

    def take(n: int, what: str) -> bytes:
        """The next n bytes; the cursor moves past them, and a record cut short raises here."""
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"truncated {what}", offset=pos)
        pos += n
        return blob[pos - n : pos]

    while pos < len(blob):
        start = pos
        (name_len,) = struct.unpack("<I", take(4, "record header"))
        if name_len == 0 or name_len > 4096:
            raise FormatError(f"bad record name length {name_len}", offset=start)
        try:
            name = take(name_len, "record name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("record name is not UTF-8", offset=start) from None
        if name in arrays:
            raise FormatError(f"duplicate record {name}", offset=start)
        (rank,) = struct.unpack("<I", take(4, f"rank field for {name}"))
        if rank > 32:
            raise FormatError(f"implausible rank {rank} for {name}", offset=pos - 4)
        extents = struct.unpack(f"<{rank}I", take(4 * rank, f"extents for {name}"))
        count = 1
        for e in extents:
            if e == 0 or count * e > 2**31:
                raise FormatError(f"extent overflow {extents} for {name}", offset=pos - 4 * rank)
            count *= e
        arr = np.frombuffer(take(4 * count, f"payload for {name}"), dtype="<f4").reshape(extents).copy()
        if not all_finite(arr):
            raise FormatError(f"non-finite values in record {name}", offset=start)
        arrays[name] = arr
    return arrays


def load_checkpoint(path, model: GLDN):
    """Read the container and load it, validating names/shapes against the model."""
    arrays = read_checkpoint(path)
    own = model.state_arrays()
    missing = sorted(set(own) - set(arrays))
    unknown = sorted(set(arrays) - set(own))
    if missing or unknown:
        raise ConfigError(
            f"checkpoint {path} does not match the model: missing {missing[:4]}, unknown {unknown[:4]}"
        )
    for name, arr in arrays.items():  # every shape first, so a refused load writes nothing
        if arr.shape != own[name].shape:
            raise ConfigError(
                f"checkpoint {path}: {name} has shape {arr.shape}, model expects {own[name].shape}"
            )
    for name, arr in arrays.items():
        own[name][...] = arr
