"""Successive permuted transformer: three per-view stages over 2D slices.

Each part slices the volume along one axis (0 sagittal, 1 axial, 2 coronal),
tokenizes every slice into non-overlapping patches, runs transformer encoder
layers over the tokens, merges 2x2 neighboring tokens, and projects the merged
tokens back to a voxel grid at half the in-slice resolution. The sliced axis
is untouched, so after the three parts every spatial axis has been halved by
exactly the two parts that did not slice along it: a net 1/4 per axis.

Slicing and patching are one data movement each way: `tokenize` splits the
two in-slice axes into (grid, patch) pairs and brings slice, grid, patch and
channel axes into token order with a single permutation; `detokenize` applies
its inverse. Besides the 2x2 gather of `patch_merge`, a part moves its volume
once on the way in and once on the way out.

The part plan (`SptPartConfig`, laid out by `plan_spt`) is the only source of
shapes inside a part. `spt_part_forward` checks its input against the plan
once. The steps it calls take their shapes from the plan and check nothing:
`resolve_patch` guarantees that the patch splits both in-slice extents into an
even token grid.

Patch sizes adapt per part: a part uses the largest power-of-two patch edge
<= the requested one for which both in-slice extents split into an even token
grid (merging needs even grid sides). For 96x112x96 at patch 8 this resolves
to parts (8, 8, 4); at patch 2 on the second stage to (2, 2, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import EncoderLayerParams, linear, layer_norm, transformer_encoder_layer
from .tensor import Tensor, permute_axes, reshape

VIEW_NAMES = {0: "sagittal", 1: "axial", 2: "coronal"}

# For each sliced axis: the permutation taking [B, C, D, H, W], with the two
# in-slice axes split into (grid, patch) pairs, to [B, S, gh, gw, p, p, C].
_TOKEN_PERM = {0: (0, 2, 3, 5, 4, 6, 1), 1: (0, 4, 2, 5, 3, 6, 1), 2: (0, 6, 2, 4, 3, 5, 1)}


@dataclass
class SptPartConfig:
    axis: int  # 0 | 1 | 2, the view this part slices along
    patch: int  # resolved patch edge for this part
    embed_dim: int
    depth: int
    heads: int
    in_channels: int
    out_channels: int
    slice_hw: tuple[int, int]  # in-slice extents before patching
    grid: tuple[int, int]  # token grid (slice_hw / patch), both even

    @property
    def n_tokens(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def token_dim(self) -> int:
        return self.patch * self.patch * self.in_channels


@dataclass
class SptConfig:
    parts: tuple[SptPartConfig, SptPartConfig, SptPartConfig]


@dataclass
class SptPartParams:
    proj_w: Tensor  # token_dim -> d
    proj_b: Tensor
    pos: Tensor  # [n_tokens, d], shared across all slices of the view
    encoder: list[EncoderLayerParams]
    merge_ln_gamma: Tensor  # over 4d
    merge_ln_beta: Tensor
    merge_w: Tensor  # 4d -> 2d
    merge_b: Tensor
    depatch_w: Tensor  # 2d -> p^2 * out_channels
    depatch_b: Tensor


def resolve_patch(extents: tuple[int, int], requested: int) -> int:
    """Largest power-of-two patch edge <= requested giving an even token grid."""
    p = requested
    while p >= 1:
        if all(e % (2 * p) == 0 for e in extents):
            return p
        p //= 2
    raise ConfigError(
        f"in-slice extents {extents} admit no patch size <= {requested} "
        f"with an even token grid (extents must be divisible by 2*patch)"
    )


def plan_spt(
    shape: tuple[int, int, int],
    in_channels: int,
    patch: int,
    embed_dim: int,
    depth: int,
    heads: int,
    out_channels: int,
) -> SptConfig:
    """Lay out the three parts for a given input, resolving per-part patch sizes.

    `out_channels` applies to every part (each part re-encodes the volume);
    the last part's value is the stage's output channel count.
    """
    if embed_dim % heads != 0:
        raise ConfigError(f"embed dim {embed_dim} not divisible by {heads} heads")
    dims = list(shape)
    channels = in_channels
    parts = []
    for axis in (0, 1, 2):
        inslice = tuple(dims[a] for a in (0, 1, 2) if a != axis)
        try:
            p = resolve_patch(inslice, patch)
        except ConfigError as e:
            raise ConfigError(f"part {axis} ({VIEW_NAMES[axis]}): {e}") from e
        grid = (inslice[0] // p, inslice[1] // p)
        parts.append(
            SptPartConfig(
                axis=axis,
                patch=p,
                embed_dim=embed_dim,
                depth=depth,
                heads=heads,
                in_channels=channels,
                out_channels=out_channels,
                slice_hw=inslice,
                grid=grid,
            )
        )
        for a in (0, 1, 2):
            if a != axis:
                dims[a] //= 2
        channels = out_channels
    return SptConfig(parts=tuple(parts))


# -- data movement ---------------------------------------------------------------


def tokenize(x: Tensor, axis: int, patch: int) -> Tensor:
    """[B,C,D,H,W] -> [B*S, (H'/p)(W'/p), p*p*C], S the extent along `axis`.

    One token sequence per slice (batch-major); patches in row-major order
    over the slice, each flattened in (row, column, channel) order.
    """
    b, c = x.shape[:2]
    extent = x.shape[2 + axis]
    grid = [e // patch for a, e in enumerate(x.shape[2:]) if a != axis]
    split = [(g, patch) for g in grid]
    split.insert(axis, (extent,))
    t = reshape(x, (b, c) + sum(split, ()))
    t = permute_axes(t, _TOKEN_PERM[axis])
    return reshape(t, (b * extent, grid[0] * grid[1], patch * patch * c))


def detokenize(tokens: Tensor, axis: int, grid: tuple[int, int], patch: int, batch: int) -> Tensor:
    """Inverse of tokenize: [B*S, gh*gw, p*p*C] -> [B,C,D,H,W]."""
    n, _, dim = tokens.shape
    extent, c = n // batch, dim // (patch * patch)
    t = reshape(tokens, (batch, extent, grid[0], grid[1], patch, patch, c))
    t = permute_axes(t, np.argsort(_TOKEN_PERM[axis]))
    volume = [g * patch for g in grid]
    volume.insert(axis, extent)
    return reshape(t, (batch, c) + tuple(volume))


def patch_merge(
    tokens: Tensor,
    grid: tuple[int, int],
    ln_gamma: Tensor,
    ln_beta: Tensor,
    w: Tensor,
    b: Tensor,
) -> Tensor:
    """Concatenate each 2x2 token neighborhood, layer-norm, project 4d -> 2d."""
    gh, gw = grid
    n, _, d = tokens.shape
    t = reshape(tokens, (n, gh // 2, 2, gw // 2, 2, d))
    t = permute_axes(t, (0, 1, 3, 2, 4, 5))  # [N, gh/2, gw/2, 2, 2, d]
    t = reshape(t, (n, (gh // 2) * (gw // 2), 4 * d))
    return linear(layer_norm(t, ln_gamma, ln_beta), w, b)


# -- forward ----------------------------------------------------------------------


def spt_part_forward(x: Tensor, cfg: SptPartConfig, params: SptPartParams) -> Tensor:
    """One view: tokenize the slices, encode, merge, rebuild at half in-slice scale.

    The part's only shape check: `x` must be [B, in_channels, D, H, W] with the
    planned in-slice extents. Every later shape comes from `cfg`.
    """
    if (
        x.ndim != 5
        or x.shape[1] != cfg.in_channels
        or tuple(x.shape[2 + a] for a in (0, 1, 2) if a != cfg.axis) != cfg.slice_hw
    ):
        raise DimensionError(
            f"part {cfg.axis} ({VIEW_NAMES[cfg.axis]}) expects [B, {cfg.in_channels}, D, H, W]"
            f" with in-slice extents {cfg.slice_hw}, got {x.shape}"
        )
    tokens = linear(tokenize(x, cfg.axis, cfg.patch), params.proj_w, params.proj_b) + params.pos
    for layer in params.encoder:
        tokens = transformer_encoder_layer(tokens, layer)
    merged = patch_merge(
        tokens, cfg.grid, params.merge_ln_gamma, params.merge_ln_beta, params.merge_w, params.merge_b
    )
    # each merged token becomes the p x p block of its half-resolution slice
    blocks = linear(merged, params.depatch_w, params.depatch_b)
    half = (cfg.grid[0] // 2, cfg.grid[1] // 2)
    return detokenize(blocks, cfg.axis, half, cfg.patch, x.shape[0])


def spt_forward(x: Tensor, cfg: SptConfig, params: list[SptPartParams]) -> Tensor:
    """Apply the three parts in view order 0, 1, 2; each axis ends at 1/4 extent."""
    for part_cfg, part_params in zip(cfg.parts, params):
        x = spt_part_forward(x, part_cfg, part_params)
    return x
