"""Permuted-transformer stage: tokenization, merging, shape contracts."""

import dataclasses
import re

import numpy as np
import pytest

from gldn import spt as S
from gldn import model as M
from gldn.errors import ConfigError, DimensionError
from gldn.tensor import Tensor, grad_check


def part_params(store_seed, part, dtype=np.float32):
    store = M.ParamStore(np.random.default_rng(store_seed), dtype)
    return M._build_spt_part(store, "part", part), store


def build_plan(shape, channels=1, patch=8, d=32, depth=2, heads=4, out=8):
    return S.plan_spt(shape, channels, patch, d, depth, heads, out)


def tiny_part():
    """Part 0 planned for an [*, 1, 8, 8, 16] input (patch 2, d 8), and its params."""
    part = build_plan((8, 8, 16), patch=2, d=8, depth=1, heads=2, out=4).parts[0]
    return part, part_params(3, part)[0]


def roundtrip(x, axis, patch):
    b, _, *spatial = x.shape
    grid = tuple(e // patch for a, e in enumerate(spatial) if a != axis)
    return S.detokenize(S.tokenize(x, axis, patch), axis, grid, patch, b)


def two_step_tokens(x, axis, patch):
    """The former slice-then-patch path in numpy: [B,C,D,H,W] -> [B*S, C, H', W']
    -> [N, (H'/p)(W'/p), p*p*C]."""
    moved = x.transpose({0: (0, 2, 1, 3, 4), 1: (0, 3, 1, 2, 4), 2: (0, 4, 1, 2, 3)}[axis])
    b, s, c, h, w = moved.shape
    t = moved.reshape(b * s, c, h // patch, patch, w // patch, patch).transpose(0, 2, 4, 3, 5, 1)
    return t.reshape(b * s, (h // patch) * (w // patch), patch * patch * c)


class TestSliceView:
    """The slicing half of tokenize/detokenize."""

    def test_paper_slicing(self):
        x = Tensor(np.zeros((1, 1, 96, 112, 96), dtype=np.float32))
        assert S.tokenize(x, 0, 1).shape == (96, 112 * 96, 1)
        assert S.tokenize(x, 1, 8).shape == (112, 12 * 12, 64)

    def test_roundtrip_bitwise_all_axes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4, 6, 8)).astype(np.float32))
        for axis in (0, 1, 2):
            for patch in (1, 2):
                np.testing.assert_array_equal(roundtrip(x, axis, patch).data, x.data)

    def test_shape_contract_axis1(self):
        x = Tensor(np.zeros((2, 8, 4, 6, 4), dtype=np.float32))
        assert S.tokenize(x, 1, 1).shape == (12, 16, 8)
        assert S.tokenize(x, 1, 2).shape == (12, 4, 32)


class TestPatchSplit:
    """The patching half of tokenize/detokenize."""

    def test_paper_token_counts(self):
        x = Tensor(np.zeros((1, 1, 96, 112, 96), dtype=np.float32))
        assert S.tokenize(x, 0, 8).shape == (96, 168, 64)

    def test_p1_roundtrip_bitwise(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 2, 4, 5, 3)).astype(np.float32))
        for axis in (0, 1, 2):
            np.testing.assert_array_equal(roundtrip(x, axis, 1).data, x.data)

    def test_roundtrip_bitwise_general(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 8, 12, 5)).astype(np.float32))
        np.testing.assert_array_equal(roundtrip(x, 2, 4).data, x.data)

    def test_row_major_token_order(self):
        # a one-hot in the top-left patch of slice 0 lands in token 0 of
        # sequence 0; one a patch to the right lands in token 1
        x = np.zeros((1, 1, 2, 4, 6), dtype=np.float32)
        x[0, 0, 0, 0, 1] = 1.0
        x[0, 0, 0, 1, 2] = 2.0
        tokens = S.tokenize(Tensor(x), 0, 2).data
        assert tokens[0, 0].sum() == 1.0 and tokens[0, 1].sum() == 2.0
        assert tokens[0, 2:].sum() == 0.0 and tokens[1].sum() == 0.0

    @pytest.mark.parametrize(
        "shape, axis, patch",
        [
            ((1, 1, 96, 112, 96), 0, 8),  # paper block 0, part 0
            ((1, 8, 96, 56, 48), 1, 8),  # part 1
            ((1, 8, 48, 56, 24), 2, 4),  # part 2
            ((2, 40, 24, 28, 24), 0, 2),  # block 1, part 0
            ((2, 32, 12, 14, 6), 2, 1),  # block 1, part 2
        ],
    )
    def test_matches_two_step_reference(self, shape, axis, patch):
        x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        want = two_step_tokens(x, axis, patch)
        np.testing.assert_array_equal(S.tokenize(Tensor(x), axis, patch).data, want)
        np.testing.assert_array_equal(roundtrip(Tensor(x), axis, patch).data, x)


class TestEmbedTokens:
    def test_shape_contract(self):
        # the part has no pos-table check of its own: the add rejects a table
        # whose rows do not match the token count
        part, params = tiny_part()
        x = Tensor(np.zeros((2, 1, 8, 8, 16), dtype=np.float32))
        assert S.spt_part_forward(x, part, params).shape == (2, 4, 8, 4, 8)
        params.pos = Tensor(np.zeros((part.n_tokens // 2, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="add"):
            S.spt_part_forward(x, part, params)

    def test_disabling_pos_gives_token_permutation_equivariance(self):
        from gldn.layers import linear, transformer_encoder_layer

        rng = np.random.default_rng(4)
        plan = build_plan((8, 8, 8), patch=2, d=8, depth=1, heads=2)
        part = plan.parts[0]
        params, _ = part_params(7, part, dtype=np.float64)
        params.pos.data[:] = 0.0

        def encode(tok):
            t = linear(Tensor(tok), params.proj_w, params.proj_b) + params.pos
            for layer in params.encoder:
                t = transformer_encoder_layer(t, layer, part.heads)
            return t.data

        tok = rng.normal(size=(2, part.n_tokens, part.token_dim))
        base = encode(tok)
        perm = rng.permutation(part.n_tokens)
        permuted = encode(tok[:, perm])
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-5)


class TestPatchMerge:
    def merge_params(self, d, dtype=np.float32):
        return (
            Tensor(np.ones(4 * d, dtype=dtype)),
            Tensor(np.zeros(4 * d, dtype=dtype)),
            Tensor(np.random.default_rng(0).normal(size=(4 * d, 2 * d)).astype(dtype)),
            Tensor(np.zeros(2 * d, dtype=dtype)),
        )

    def test_grid_halves_dim_doubles(self):
        d = 32
        tokens = Tensor(np.random.default_rng(1).normal(size=(4, 14 * 12, d)).astype(np.float32))
        out = S.patch_merge(tokens, (14, 12), *self.merge_params(d))
        assert out.shape == (4, 7 * 6, 2 * d)

    def test_constant_tokens_stay_constant(self):
        d = 4
        g, b, w, bias = self.merge_params(d)
        tokens = Tensor(np.full((2, 4 * 4, d), 3.0, dtype=np.float32))
        out = S.patch_merge(tokens, (4, 4), g, b, w, bias).data
        # constant rows normalize to zeros, so every merged token is the same
        for row in out.reshape(-1, 2 * d):
            np.testing.assert_allclose(row, out.reshape(-1, 2 * d)[0], atol=1e-6)


class TestDePatchify:
    def test_full_scale_part1_shape(self):
        # 96 slices of 7x6 merged tokens, each projected to an 8x8 block of 8 channels
        blocks = Tensor(np.zeros((96, 7 * 6, 8 * 8 * 8), dtype=np.float32))
        assert S.detokenize(blocks, 0, (7, 6), 8, batch=1).shape == (1, 8, 96, 56, 48)

    def test_voxel_budget_quartered(self):
        # in-slice voxels after a part = 1/4 of the part input per slice per channel
        plan = build_plan((32, 48, 32))
        part = plan.parts[0]
        before = part.slice_hw[0] * part.slice_hw[1]
        gh2, gw2 = part.grid[0] // 2, part.grid[1] // 2
        after = (gh2 * part.patch) * (gw2 * part.patch)
        assert after * 4 == before


class TestPlanSpt:
    def test_full_scale_patch_resolution(self):
        plan = build_plan((96, 112, 96), patch=8)
        assert tuple(p.patch for p in plan.parts) == (8, 8, 4)
        assert plan.parts[0].slice_hw == (112, 96)
        assert plan.parts[1].slice_hw == (96, 48)
        assert plan.parts[2].slice_hw == (48, 56)

    def test_second_stage_patch_resolution(self):
        plan = build_plan((24, 28, 24), channels=40, patch=2, d=64, out=32)
        assert tuple(p.patch for p in plan.parts) == (2, 2, 1)

    def test_impossible_shape_fails_with_part_name(self):
        # 114 degrades part 0 to patch 1 and halves to 57; part 2 then has an
        # odd in-slice extent that no patch size can split evenly
        with pytest.raises(ConfigError, match="part 2"):
            build_plan((96, 114, 96), patch=8)

    def test_no_patch_fits_names_the_part(self):
        # part 0 splits (8, 8); part 1 then sees (5, 4), and 5 is odd for every patch
        with pytest.raises(ConfigError, match=re.escape("part 1 (axial)")):
            build_plan((5, 8, 8), patch=2)

    def test_indivisible_heads(self):
        with pytest.raises(ConfigError, match="heads"):
            build_plan((32, 48, 32), d=30, heads=4)

    def test_grid_is_derived_from_slice_and_patch(self):
        # the paper's two stages; the plan stores slice_hw and patch, and the grid comes from them
        assert "grid" not in {f.name for f in dataclasses.fields(S.SptPartConfig)}
        for plan in (build_plan((96, 112, 96), patch=8), build_plan((24, 28, 24), channels=40, patch=2, d=64, out=32)):
            for part in plan.parts:
                assert part.grid == (part.slice_hw[0] // part.patch, part.slice_hw[1] // part.patch)
                assert part.grid[0] % 2 == part.grid[1] % 2 == 0


class TestSptPartParams:
    def test_containers_hold_only_tensors(self):
        # shapes and head counts live in the plan: every field is a Tensor, a container of
        # them, or a list of containers, and the walk meets every registered parameter
        part = build_plan((8, 8, 16), patch=2, d=8, depth=2, heads=2, out=4).parts[0]
        params, store = part_params(3, part)
        found = []

        def walk(container, where):
            for field in dataclasses.fields(container):
                value, name = getattr(container, field.name), f"{where}.{field.name}"
                if isinstance(value, list):
                    assert value and all(dataclasses.is_dataclass(v) for v in value), name
                    for i, v in enumerate(value):
                        walk(v, f"{name}[{i}]")
                elif dataclasses.is_dataclass(value):
                    walk(value, name)
                else:
                    assert isinstance(value, Tensor), (name, type(value).__name__)
                    found.append(value)

        walk(params, "part")
        assert len(params.encoder) == 2
        assert sorted(map(id, found)) == sorted(map(id, store.params.values()))


class TestSptPartForward:
    def test_full_scale_part0(self):
        plan = build_plan((96, 112, 96))
        params, _ = part_params(0, plan.parts[0])
        x = Tensor(np.random.default_rng(5).normal(size=(1, 1, 96, 112, 96)).astype(np.float32))
        out = S.spt_part_forward(x, plan.parts[0], params)
        assert out.shape == (1, 8, 96, 56, 48)

    def test_desk_part0(self):
        plan = build_plan((32, 48, 32))
        params, _ = part_params(1, plan.parts[0])
        x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 32, 48, 32)).astype(np.float32))
        out = S.spt_part_forward(x, plan.parts[0], params)
        assert out.shape == (1, 8, 32, 24, 16)

    def test_rank_checked(self):
        part, params = tiny_part()
        with pytest.raises(DimensionError, match=r"part 0 \(sagittal\).*\(2, 1, 8, 8\)"):
            S.spt_part_forward(Tensor(np.zeros((2, 1, 8, 8), dtype=np.float32)), part, params)

    def test_channels_checked(self):
        part, params = tiny_part()
        with pytest.raises(DimensionError, match=r"part 0 \(sagittal\) expects \[B, 1,"):
            S.spt_part_forward(Tensor(np.zeros((2, 3, 8, 8, 16), dtype=np.float32)), part, params)

    def test_indivisible_rejected(self):
        # patch 2 does not divide the in-slice extent 5
        part, params = tiny_part()
        with pytest.raises(DimensionError, match=r"in-slice extents \(8, 16\)"):
            S.spt_part_forward(Tensor(np.zeros((2, 1, 8, 5, 16), dtype=np.float32)), part, params)

    def test_one_permutation_each_way(self, monkeypatch):
        # tokenize, patch_merge's 2x2 gather and detokenize; the encoder's
        # head split lives in layers and is not counted
        calls = []
        real = S.permute_axes
        monkeypatch.setattr(S, "permute_axes", lambda t, perm: calls.append(perm) or real(t, perm))
        part, params = tiny_part()
        S.spt_part_forward(Tensor(np.zeros((2, 1, 8, 8, 16), dtype=np.float32)), part, params)
        assert len(calls) == 3

    def test_sliced_axis_untouched(self):
        plan = build_plan((16, 16, 32), patch=2, d=8, depth=1, heads=2, out=4)
        params, _ = part_params(2, plan.parts[0])
        x = Tensor(np.random.default_rng(7).normal(size=(2, 1, 16, 16, 32)).astype(np.float32))
        out = S.spt_part_forward(x, plan.parts[0], params)
        # axis 0 is sliced, so its extent 16 survives; the other two halve
        assert out.shape == (2, 4, 16, 8, 16)


class TestSptForward:
    def run_spt(self, shape, channels=1, patch=8, d=32, depth=2, heads=4, out=8, batch=1, seed=0):
        plan = build_plan(shape, channels, patch, d, depth, heads, out)
        store = M.ParamStore(np.random.default_rng(seed), np.float32)
        params = [M._build_spt_part(store, f"part{j}", p) for j, p in enumerate(plan.parts)]
        x = Tensor(
            np.random.default_rng(seed + 1).normal(size=(batch, channels) + shape).astype(np.float32)
        )
        return S.spt_forward(x, plan, params)

    def test_full_scale_chain(self):
        out = self.run_spt((96, 112, 96))
        assert out.shape == (1, 8, 24, 28, 24)

    def test_second_stage_chain(self):
        out = self.run_spt((24, 28, 24), channels=40, patch=2, d=64, out=32)
        assert out.shape == (1, 32, 6, 7, 6)

    def test_desk_chain(self):
        out = self.run_spt((32, 48, 32))
        assert out.shape == (1, 8, 8, 12, 8)

    def test_quarter_contract_random_shapes(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            shape = tuple(int(v) * 8 for v in rng.integers(1, 4, size=3))
            out = self.run_spt(shape, patch=2, d=8, depth=1, heads=2, out=4, batch=2)
            assert out.shape == (2, 4) + tuple(s // 4 for s in shape)

    def test_grad_check_tiny(self):
        plan = build_plan((8, 8, 8), patch=2, d=8, depth=1, heads=2, out=2)
        store = M.ParamStore(np.random.default_rng(9), np.float64)
        params = [M._build_spt_part(store, f"part{j}", p) for j, p in enumerate(plan.parts)]
        x = Tensor(
            np.random.default_rng(10).normal(size=(1, 1, 8, 8, 8)), requires_grad=True, dtype=np.float64
        )
        coeff = np.random.default_rng(11).normal(size=(1, 2, 2, 2, 2))

        def f(x):
            return (S.spt_forward(x, plan, params) * coeff).sum()

        (res,) = grad_check(f, [x], tol=1e-4, sample=64)
        assert res.passed, res

        # and through a sample of the parameters
        names = ["part0.proj.w", "part0.pos", "part1.enc0.attn.wq", "part2.merge.w", "part2.depatch.w"]
        tensors = [store.params[n] for n in names]

        def g(*ts):
            return (S.spt_forward(x, plan, params) * coeff).sum()

        for name, res in zip(names, grad_check(g, tensors, tol=1e-4, sample=24)):
            assert res.passed, (name, res)
