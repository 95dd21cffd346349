"""Model assembly: fusion blocks, head, ablations, init, checkpoints, dependencies."""

import ast
import contextlib
import dataclasses
import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as R
from gldn import layers as L, model as M, spt as S
from gldn.errors import ConfigError, DimensionError, DomainError, FormatError, NumericsError
from gldn.tensor import Tensor, backward, grad_check, no_grad

FULL = M.ModelConfig(input_shape=(96, 112, 96))
DESK = M.ModelConfig(input_shape=(32, 48, 32))


def tiny_config(**overrides):
    kw = dict(
        input_shape=(8, 8, 8),
        llb_channels=((2, 4),),
        glb_channels=(2,),
        patch=(2,),
        embed_dim=(8,),
        depth=(1,),
        heads=(2,),
    )
    kw.update(overrides)
    return M.ModelConfig(**kw)


def rand_input(shape, batch=1, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(batch, 1) + tuple(shape)).astype(dtype))


def llb(x, blocks):
    """The local learning block: its two CNN blocks, chained."""
    return M.cnn_block(M.cnn_block(x, blocks[0], "relu_bn"), blocks[1], "relu_bn")


def fusion_block(x, block):
    """One fusion block from its parts, as the paper draws it: LLB and GLB on the same input, then aggregate."""
    local = None if block.llb is None else llb(x, block.llb)
    glob = None if block.glb_cfg is None else S.spt_forward(x, block.glb_cfg, block.glb)
    return M.aggregate(local, glob)


def test_runtime_needs_only_numpy():
    package = Path(M.__file__).parent
    probe = (
        f"import sys; sys.path.insert(0, {str(package.parent)!r}); import gldn.model; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]", run.stdout
    allowed = {"gldn", "numpy"} | set(sys.stdlib_module_names)
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: gldn itself
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


class TestCnnBlock:
    def test_full_scale_shape(self):
        store = M.ParamStore(np.random.default_rng(0), np.float32)
        cb = M._build_cnn_block(store, "cb", 1, 16)
        cb.bn.training = True
        out = M.cnn_block(rand_input((96, 112, 96)), cb, "relu_bn")
        assert out.shape == (1, 16, 48, 56, 48)

    def test_zero_conv_gives_zero(self):
        store = M.ParamStore(np.random.default_rng(1), np.float32)
        cb = M._build_cnn_block(store, "cb", 1, 3)
        cb.conv.weight.data[:] = 0.0
        cb.bn.training = True
        out = M.cnn_block(rand_input((8, 8, 8), batch=2), cb, "relu_bn")
        np.testing.assert_array_equal(out.data, 0.0)

    def test_grad_check_small(self):
        store = M.ParamStore(np.random.default_rng(2), np.float64)
        cb = M._build_cnn_block(store, "cb", 1, 2)
        cb.bn.training = True
        x = Tensor(np.random.default_rng(3).normal(size=(1, 1, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        coeff = np.random.default_rng(4).normal(size=(1, 2, 2, 2, 2))

        def f(x, w, b, g, beta):
            p = M.CnnBlockParams(
                M.Conv3dParams(w, b),
                M.BatchNorm3dState(g, beta, np.zeros(2), np.ones(2), training=True),
            )
            return (M.cnn_block(x, p, "relu_bn") * coeff).sum()

        tensors = [x, cb.conv.weight, cb.conv.bias, cb.bn.gamma, cb.bn.beta]
        for res in grad_check(f, tensors, tol=1e-4, sample=40):
            assert res.passed, res


class TestFusedEval:
    """With BatchNorm in eval, the CNN block node pools inside the conv's slabs before relu and BatchNorm,
    recorded or not, with the same bytes either way, and the reference's values within a tolerance: float32
    normalizes float32 pooled voxels and sums float32 GEMMs."""

    def block(self, dtype, c_in, c_out, gammas="positive", seed=0):
        store = M.ParamStore(np.random.default_rng(seed), dtype)
        cb = M._build_cnn_block(store, "cb", c_in, c_out)
        rng = np.random.default_rng(seed + 1)
        gamma = rng.uniform(0.5, 2.0, c_out)
        if gammas == "some negative":
            gamma[::3] *= -1
        elif gammas == "all negative":
            gamma *= -1
        elif gammas == "one zero":
            gamma[1] = 0.0
        cb.bn.gamma.data[:] = gamma
        cb.bn.beta.data[:] = rng.normal(size=c_out)
        cb.bn.running_mean[:] = rng.normal(size=c_out)
        cb.bn.running_var[:] = rng.uniform(0.5, 2.0, c_out)
        cb.conv.bias.data[:] = rng.normal(size=c_out)
        cb.bn.training = False
        return cb

    # pooled depth pairs per slab: the default bound (one slab), one pair per slab, and 2, 2, 1
    @pytest.mark.parametrize("pairs", [None, 1, 2])
    @pytest.mark.parametrize("gammas", ["positive", "some negative", "all negative", "one zero"])
    @pytest.mark.parametrize("order", ["relu_bn"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_recorded_eval_path(self, monkeypatch, dtype, order, gammas, pairs):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 10, 6, 4)).astype(dtype))
        cb = self.block(dtype, 3, 5, gammas)
        if pairs is not None:  # a depth's columns take 27 * C_in * B * H * W elements
            monkeypatch.setattr(L, "_CHUNK_BYTES", pairs * 2 * 27 * 3 * 2 * 6 * 4 * x.data.itemsize)
        recorded = M.cnn_block(x, cb, order)  # the parameters require grad: the node keeps its argmax
        assert recorded.requires_grad
        with no_grad():
            fused = M.cnn_block(x, cb, order)
            reference = R.cnn_block(*R.float64_copies(x, cb.conv, cb.bn))  # relu and BatchNorm on every voxel
        assert fused.dtype == dtype and fused.shape == recorded.shape == reference.shape == (2, 5, 5, 3, 2)
        R.assert_close([fused.data], [reference.data], 1e-12 if dtype == np.float64 else 2e-6)
        np.testing.assert_array_equal(fused.data, recorded.data)  # in value: the sign of a zero is unspecified

    @pytest.mark.parametrize("fused", [True, False])
    def test_a_non_finite_value_the_pool_would_hide_raises(self, fused):
        cb = self.block(np.float32, 1, 2)
        cb.conv.weight.data[:] = 0.0
        cb.conv.weight.data[:, :, 1, 1, 1] = 10.0  # the centre tap alone: y = 10 x + b
        x = np.ones((1, 1, 4, 4, 4), np.float32)
        x[0, 0, 1, 2, 1] = -3e38  # y = -inf there and finite elsewhere, so every window max is finite
        with contextlib.nullcontext() if not fused else no_grad(), np.errstate(over="ignore"):
            with pytest.raises(NumericsError, match=r"conv_relu_bn_pool.*\(1, 2, 4, 4, 4\)"):
                M.cnn_block(Tensor(x), cb, "relu_bn")

    def test_a_huge_negative_conv_voxel_gives_the_same_values_on_both_paths(self):
        # relu maps the -1e38 conv voxel to 0 before BatchNorm scales it, so neither call overflows
        cb = M._build_cnn_block(M.ParamStore(np.random.default_rng(0), np.float32), "cb", 1, 1)  # eval BatchNorm
        cb.conv.weight.data[:] = 0.0
        cb.conv.weight.data[:, :, 1, 1, 1] = 1.0  # the centre tap alone, and a zero bias: y = x
        cb.bn.gamma.data[:] = 10.0
        x = np.ones((1, 1, 4, 4, 4), np.float32)
        x[0, 0, 1, 2, 1] = -1e38
        recorded = M.cnn_block(Tensor(x), cb, "relu_bn")
        with no_grad():
            fused = M.cnn_block(Tensor(x), cb, "relu_bn")
        np.testing.assert_array_equal(fused.data, recorded.data)
        np.testing.assert_allclose(fused.data, 10.0 / np.sqrt(1.0 + L.EPS), rtol=1e-6)

    @pytest.mark.parametrize("fused", [True, False])
    def test_odd_extents_raise(self, fused):
        cb = self.block(np.float32, 1, 2)
        with contextlib.nullcontext() if not fused else no_grad():
            with pytest.raises(DimensionError, match="divisible by 2"):
                M.cnn_block(rand_input((4, 5, 4)), cb, "relu_bn")

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval-no-grad"])
    def test_a_forward_runs_the_node_once_per_cnn_block(self, monkeypatch, training):
        model = M.build_model(tiny_config(llb_channels=((2, 4), (4, 4)), glb_channels=(2, 2), patch=(2, 2),
                                          embed_dim=(8, 8), depth=(1, 1), heads=(2, 2), input_shape=(16, 16, 16)))
        calls = []
        monkeypatch.setattr(M, "conv_relu_bn_pool", lambda *a, f=L.conv_relu_bn_pool: calls.append(a) or f(*a))
        with contextlib.nullcontext() if training else no_grad():
            model.forward(rand_input((16, 16, 16)), training=training)
        assert len(calls) == 4 and all(bn.training == training for _, _, bn in calls)

    def test_the_full_resolution_output_is_never_built(self):
        cb = self.block(np.float32, 4, 32)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 4, 64, 64, 64)).astype(np.float32))
        conv_bytes = 32 * 64**3 * 4
        assert conv_bytes > L._CHUNK_BYTES
        for training, record in [(False, False), (False, True), (True, False), (True, True)]:
            cb.bn.training = training
            tracemalloc.start()
            try:
                with contextlib.nullcontext() if record else no_grad():
                    out = M.cnn_block(x, cb, "relu_bn")
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.requires_grad == record
            # unrecorded, no step holds the conv output; recorded, the node keeps no full-resolution array
            assert (kept if record else peak) < conv_bytes, (training, record, kept, peak)
            del out


class TestLlb:
    def build_llb(self, c_in, c1, c2, seed=0):
        store = M.ParamStore(np.random.default_rng(seed), np.float32)
        blocks = (
            M._build_cnn_block(store, "cb0", c_in, c1),
            M._build_cnn_block(store, "cb1", c1, c2),
        )
        for cb in blocks:
            cb.bn.training = True
        return blocks

    def test_full_scale_first_block(self):
        out = llb(rand_input((96, 112, 96)), self.build_llb(1, 16, 32))
        assert out.shape == (1, 32, 24, 28, 24)

    def test_full_scale_second_block(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 40, 24, 28, 24)).astype(np.float32))
        out = llb(x, self.build_llb(40, 64, 128))
        assert out.shape == (1, 128, 6, 7, 6)

    def test_desk_scale(self):
        out = llb(rand_input((32, 48, 32)), self.build_llb(1, 16, 32))
        assert out.shape == (1, 32, 8, 12, 8)


class TestAggregate:
    def test_channel_40(self):
        local = Tensor(np.zeros((1, 32, 24, 28, 24), dtype=np.float32))
        global_ = Tensor(np.zeros((1, 8, 24, 28, 24), dtype=np.float32))
        assert M.aggregate(local, global_).shape == (1, 40, 24, 28, 24)

    def test_ablated_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 2, 2, 2)).astype(np.float32))
        assert M.aggregate(x, None) is x
        assert M.aggregate(None, x) is x

    def test_local_first_in_channel_order(self):
        rng = np.random.default_rng(1)
        local = Tensor(rng.normal(size=(1, 32, 4, 4, 4)).astype(np.float32))
        global_ = Tensor(rng.normal(size=(1, 8, 4, 4, 4)).astype(np.float32))
        fused = M.aggregate(local, global_)
        np.testing.assert_array_equal(fused.data[:, :32], local.data)
        np.testing.assert_array_equal(fused.data[:, 32:], global_.data)

    def test_two_absent_streams(self):
        with pytest.raises(ConfigError, match="absent"):
            M.aggregate(None, None)

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            M.aggregate(
                Tensor(np.zeros((1, 2, 4, 4, 4))), Tensor(np.zeros((1, 2, 2, 4, 4)))
            )


class TestHead:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 5, 2, 2, 2)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 84)).astype(np.float32))
        b = Tensor(np.zeros(84, dtype=np.float32))
        out = M.head_forward(x, w, b)
        assert out.shape == (3, 84)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.data >= 0)

    def test_zero_weights_uniform(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 2, 2, 2)).astype(np.float32))
        out = M.head_forward(x, Tensor(np.zeros((3, 84), dtype=np.float32)), Tensor(np.zeros(84, dtype=np.float32)))
        np.testing.assert_allclose(out.data, 1.0 / 84, atol=1e-7)


class TestBuildModel:
    def test_full_scale_shape_chain(self):
        model = M.build_model(FULL, seed=0)
        x = rand_input((96, 112, 96), batch=1, seed=1)
        # fusion block 1 alone: the channel-40 stage
        mid = fusion_block(x, model.blocks[0])
        assert mid.shape == (1, 40, 24, 28, 24)
        mid2 = fusion_block(mid, model.blocks[1])
        assert mid2.shape == (1, 160, 6, 7, 6)
        out = model.forward(x)
        assert out.shape == (1, 84)

    def test_desk_forward_batch(self):
        model = M.build_model(DESK, seed=0)
        out = model.forward(rand_input((32, 48, 32), batch=4, seed=2))
        assert out.shape == (4, 84)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_eval_forward_deterministic_bitwise(self):
        model = M.build_model(tiny_config(), seed=3)
        x = rand_input((8, 8, 8), batch=2, seed=4)
        a = model.forward(x, training=False).data
        b = model.forward(x, training=False).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_float32_matches_float64_build(self, training):
        # float32 has its own erf in GELU and its own rounding everywhere else;
        # eval runs under no_grad, train on the tape
        x = rand_input((8, 8, 8), batch=2, seed=18, dtype=np.float64)
        probs = {}
        for dtype in (np.float32, np.float64):
            model = M.build_model(tiny_config(), seed=19, dtype=dtype)
            with contextlib.nullcontext() if training else no_grad():
                probs[dtype] = model.forward(Tensor(x.data.astype(dtype)), training=training).data
        assert probs[np.float32].dtype == np.float32
        np.testing.assert_allclose(probs[np.float32], probs[np.float64], rtol=0, atol=1e-5)

    def test_float32_grads_match_float64_build(self):
        # GEMM summation order is not fixed, so float32 grads are specified within a
        # tolerance of each grad's float64 max (measured <= 1.9e-6 here)
        x = rand_input((8, 8, 8), batch=2, seed=18, dtype=np.float64)
        coeff = np.random.default_rng(20).normal(size=(2, 84))
        grads = {}
        for dtype in (np.float32, np.float64):
            model = M.build_model(tiny_config(), seed=19, dtype=dtype)
            backward((model.forward(Tensor(x.data.astype(dtype)), training=True) * coeff).sum())
            grads[dtype] = {name: t.grad for name, t in model.parameters().items()}
        for name, ref in grads[np.float64].items():
            scale = np.abs(ref).max()
            assert np.abs(grads[np.float32][name] - ref).max() <= 1e-4 * scale, (name, scale)

    def test_same_seed_bitwise_identical(self):
        a = M.build_model(tiny_config(), seed=7)
        b = M.build_model(tiny_config(), seed=7)
        for name, t in a.parameters().items():
            np.testing.assert_array_equal(t.data, b.parameters()[name].data)

    def test_distinct_seeds_differ(self):
        a = M.build_model(tiny_config(), seed=7)
        b = M.build_model(tiny_config(), seed=8)
        assert any(
            not np.array_equal(t.data, b.parameters()[name].data)
            for name, t in a.parameters().items()
            if t.data.std() > 0
        )

    def test_indivisible_input_rejected_at_build(self):
        with pytest.raises(ConfigError, match="divisible"):
            M.build_model(M.ModelConfig(input_shape=(30, 48, 32)))

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"input_shape": (32, 48)}, id="two-extents"),
            pytest.param({"input_shape": (-32, 48, 32)}, id="negative-extent"),
            pytest.param({"input_shape": (0, 48, 32)}, id="zero-extent"),
            pytest.param({"llb_channels": ((16,), (64, 128))}, id="llb-not-a-pair"),
            pytest.param({"llb_channels": ((0, 32), (64, 128))}, id="zero-llb-channel"),
            pytest.param({"glb_channels": (0, 32)}, id="zero-glb-channel"),
            pytest.param({"patch": (8.0, 2)}, id="float-patch"),
            pytest.param({"embed_dim": (0, 64)}, id="zero-embed-dim"),
            pytest.param({"depth": (-1, 2)}, id="negative-depth"),
            pytest.param({"heads": (0, 4)}, id="zero-heads"),
            pytest.param(
                dict.fromkeys(("llb_channels", "glb_channels", "patch", "embed_dim", "depth", "heads"), ()),
                id="zero-blocks",
            ),
            pytest.param({"patch": 8}, id="scalar-patch"),
            pytest.param({"heads": 4}, id="scalar-heads"),
            pytest.param({"input_shape": 32}, id="scalar-input-shape"),
            pytest.param({"llb_channels": None}, id="none-llb-channels"),
            pytest.param({"heads": ((4,), 4)}, id="ragged-heads"),
            pytest.param({"input_shape": ((32,), 48, 32)}, id="ragged-input-shape"),
            pytest.param({"embed_dim": (32, [64])}, id="list-embed-dim"),
            pytest.param({"llb_channels": (((1, 2), 3), (64, 128))}, id="nested-llb-pair"),
            pytest.param({"patch": ((8,), (2,))}, id="tuple-patches"),
            pytest.param({"glb_channels": (True, 32)}, id="bool-glb-channel"),
        ],
    )
    def test_malformed_config_names_field(self, overrides):
        field = next(iter(overrides))  # the field the error must name
        with pytest.raises(ConfigError, match=field):
            M.build_model(M.ModelConfig(**overrides))

    def test_conv_order_is_a_constant_not_a_field(self):
        assert "conv_order" not in {f.name for f in dataclasses.fields(M.ModelConfig)}
        assert M.ModelConfig().conv_order == "relu_bn"

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, "float128", None, "not-a-dtype"])
    def test_dtype_other_than_float32_or_float64_refused(self, dtype):
        with pytest.raises(ConfigError, match="float32 or float64"):
            M.build_model(tiny_config(), dtype=dtype)

    def test_numpy_integer_config_values_accepted(self):
        cfg = tiny_config(input_shape=tuple(np.int64(e) for e in (8, 8, 8)), heads=(np.int32(2),))
        assert M.build_model(cfg, seed=0, dtype="float32").forward(rand_input((8, 8, 8))).shape == (1, 84)

    def test_wrong_input_shape_rejected_at_forward(self):
        model = M.build_model(tiny_config(), seed=0)
        with pytest.raises(DimensionError, match="built for"):
            model.forward(rand_input((16, 16, 16)))

    @pytest.mark.parametrize("shape", [(1, 2, 8, 8, 8), (1, 1, 8, 8, 16), (1, 1, 8, 8), (1, 8, 8, 8, 1, 1)])
    def test_wrong_channels_or_extent_rejected_at_forward(self, shape):
        model = M.build_model(tiny_config(), seed=0)
        with pytest.raises(DimensionError, match=r"built for.*\(8, 8, 8\).*" + re.escape(str(shape))):
            model.forward(Tensor(np.ones(shape, np.float32)))

    def test_each_call_sets_every_batchnorm_mode(self):
        two_blocks = dict(llb_channels=((2, 4), (4, 8)), glb_channels=(2, 2), patch=(2, 1), embed_dim=(8, 8))
        model = M.build_model(tiny_config(input_shape=(16, 16, 16), depth=(1, 1), heads=(2, 2), **two_blocks))
        bns = [cb.bn for block in model.blocks for cb in block.llb]
        assert len(bns) == 4
        x = rand_input((16, 16, 16), batch=2)
        model.forward(x, training=True)
        assert all(bn.training for bn in bns)
        model.forward(x, training=False)
        assert not any(bn.training for bn in bns)

    @pytest.mark.parametrize("ablation", ["full", "no_cnn", "no_transformer"])
    def test_train_forward_is_the_composition_of_its_parts(self, ablation):
        # two models from one seed: one runs model(x), the other the parts in the paper's order
        two_blocks = dict(llb_channels=((2, 4), (4, 8)), glb_channels=(2, 2), patch=(2, 1), embed_dim=(8, 8))
        cfg = tiny_config(input_shape=(16, 16, 16), depth=(1, 1), heads=(2, 2), ablation=ablation, **two_blocks)
        whole, parts = M.build_model(cfg, seed=5), M.build_model(cfg, seed=5)
        x = rand_input((16, 16, 16), batch=2, seed=6)
        probs = whole(x, training=True).data
        h = x
        for block in parts.blocks:
            for cb in block.llb or ():
                cb.bn.training = True
            h = fusion_block(h, block)
        assert M.head_forward(h, parts.head_w, parts.head_b).data.tobytes() == probs.tobytes()
        assert parts.store.buffers.keys() == whole.store.buffers.keys()
        for name, buf in whole.store.buffers.items():
            assert parts.store.buffers[name].tobytes() == buf.tobytes(), name

    def test_input_of_another_dtype_rejected_at_forward(self):
        # a float64 input would silently promote a float32 model's whole forward
        model = M.build_model(tiny_config(), seed=0, dtype=np.float32)
        with pytest.raises(DomainError, match="float32.*float64"):
            model.forward(rand_input((8, 8, 8), dtype=np.float64))

    def test_parameter_count_formula(self):
        # independent closed-form count for the tiny config
        cfg = tiny_config()
        model = M.build_model(cfg, seed=0)

        def conv_block(cin, cout):
            return cout * cin * 27 + cout + 2 * cout  # weight + bias + bn affine

        def encoder(d):
            attn = 4 * d * d + 3 * d  # q, k, v, o weights; no key bias
            ffn = d * 4 * d + 4 * d + 4 * d * d + d
            lns = 4 * d
            return attn + ffn + lns

        def spt_part(token_dim, d, n_tokens, depth, patch, cout):
            total = token_dim * d + d  # proj
            total += n_tokens * d  # pos
            total += depth * encoder(d)
            total += 8 * d + 4 * d * 2 * d + 2 * d  # merge ln + linear
            total += 2 * d * patch * patch * cout + patch * patch * cout  # de-patchify
            return total

        want = conv_block(1, 2) + conv_block(2, 4)
        # parts on (8,8,8): part0 slice (8,8) p=2 grid 4x4 -> 16 tokens dim 4
        want += spt_part(4, 8, 16, 1, 2, 2)
        # part1: volume (8,4,4) c=2, slice (8,4) p=2 grid (4,2) -> 8 tokens dim 8
        want += spt_part(8, 8, 8, 1, 2, 2)
        # part2: volume (4,4,2) c=2, slice (4,4) p=2 grid (2,2) -> 4 tokens dim 8
        want += spt_part(8, 8, 4, 1, 2, 2)
        want += 6 * 84 + 84  # head on 4 + 2 channels
        assert sum(t.size for t in model.parameters().values()) == want

    def test_shape_chain_report(self):
        # the built plan: block 1's SPT slices block 0's 24x28x24 output and
        # its parts leave 6x7x6 (in-slice extents halve part by part)
        model = M.build_model(FULL, seed=0)
        assert model.blocks[1].llb[0].conv.weight.shape[1] == 40
        assert model.head_w.shape[0] == 160
        assert [tuple(p.patch for p in b.glb_cfg.parts) for b in model.blocks] == [(8, 8, 4), (2, 2, 1)]
        assert [p.slice_hw for p in model.blocks[1].glb_cfg.parts] == [(28, 24), (24, 12), (12, 14)]


class TestAblations:
    def test_no_cnn_has_zero_conv_params(self):
        model = M.build_model(tiny_config(ablation="no_cnn"), seed=0)
        assert not any("conv" in name for name in model.parameters())
        out = model.forward(rand_input((8, 8, 8), batch=2, seed=0))
        assert out.shape == (2, 84)

    def test_no_transformer_has_zero_attention_params(self):
        model = M.build_model(tiny_config(ablation="no_transformer"), seed=0)
        assert not any("attn" in name for name in model.parameters())
        out = model.forward(rand_input((8, 8, 8), batch=2, seed=0))
        assert out.shape == (2, 84)

    def test_unknown_ablation(self):
        with pytest.raises(ConfigError, match="ablation"):
            M.build_model(tiny_config(ablation="no_everything"))


class TestEndToEndGradient:
    def test_tiny_model_grad_check(self):
        model = M.build_model(tiny_config(), seed=5, dtype=np.float64)
        x = Tensor(
            np.random.default_rng(6).normal(size=(1, 1, 8, 8, 8)), requires_grad=True, dtype=np.float64
        )
        coeff = np.random.default_rng(7).normal(size=(1, 84))
        (res,) = grad_check(lambda t: (model.forward(t, training=True) * coeff).sum(), [x], tol=1e-4, sample=48)
        assert res.passed, res

    def test_tiny_model_param_grads(self):
        model = M.build_model(tiny_config(), seed=8, dtype=np.float64)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 1, 8, 8, 8)), dtype=np.float64)
        coeff = np.random.default_rng(10).normal(size=(2, 84))
        names = [
            "blocks.0.llb.cb0.conv.weight",
            "blocks.0.llb.cb1.bn.gamma",
            "blocks.0.glb.part0.proj.w",
            "blocks.0.glb.part1.enc0.attn.wq",
            "blocks.0.glb.part1.enc0.attn.wk",
            "blocks.0.glb.part1.enc0.attn.wv",
            "blocks.0.glb.part2.depatch.w",
            "head.w",
        ]
        tensors = [model.parameters()[n] for n in names]

        def f(*ts):
            return (model.forward(x, training=True) * coeff).sum()

        for name, res in zip(names, grad_check(f, tensors, tol=1e-4, sample=20)):
            assert res.passed, (name, res)

    def test_float32_model_stays_float32(self):
        # a float64 constant anywhere on the path would promote the output
        model = M.build_model(tiny_config(), seed=15, dtype=np.float32)
        x = rand_input((8, 8, 8), batch=2, seed=16)
        assert model.forward(x).dtype == np.float32
        out = model.forward(x, training=True)
        assert out.dtype == np.float32
        backward((out * np.random.default_rng(17).normal(size=(2, 84))).sum())
        for name, t in model.parameters().items():
            assert t.grad.dtype == np.float32, name


class TestZeroSign:
    """The sign of an exact zero is unspecified, and no result depends on it.

    A relu that writes -0.0 for every negative input (x * (x > 0)) must leave
    the train output, every parameter grad, the BatchNorm running statistics
    and the eval output after one SGD step byte-identical to the model's relu.
    """

    def step(self, dtype):
        model = M.build_model(tiny_config(input_shape=(16, 16, 16)), seed=21, dtype=dtype)
        x = rand_input((16, 16, 16), batch=2, seed=22, dtype=dtype)
        train = model.forward(x, training=True)
        backward((train * np.random.default_rng(23).normal(size=(2, 84))).sum())
        arrays = {"train": train.data}
        for name, t in model.parameters().items():
            arrays[name + ".grad"] = t.grad.copy()
            t.data -= 0.1 * t.grad
        with no_grad():
            arrays["eval"] = model.forward(x).data
        arrays.update(model.store.buffers)
        return arrays

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_zero_sign_never_reaches_a_result(self, monkeypatch, dtype):
        negative_zeros = []

        def relu_writing_negative_zeros(a, out=None):
            out = np.multiply(a, a > 0, out=out)
            negative_zeros.append(np.signbit(out[out == 0]).any())
            return out

        want = self.step(dtype)
        monkeypatch.setattr(L, "_relu", relu_writing_negative_zeros)  # the CNN block node's, in both modes
        got = self.step(dtype)
        assert len(negative_zeros) == 4 and all(negative_zeros)  # 2 conv blocks, train and eval, one slab each
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = M.build_model(tiny_config(), seed=11)
        # make running stats nontrivial
        model.forward(rand_input((8, 8, 8), batch=2, seed=12), training=True)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        twin = M.build_model(tiny_config(), seed=99)
        M.load_checkpoint(path, twin)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, twin.state_arrays()[name])

    def test_forward_identical_after_load(self, tmp_path):
        model = M.build_model(tiny_config(), seed=13)
        model.forward(rand_input((8, 8, 8), seed=1), training=True)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        twin = M.build_model(tiny_config(), seed=50)
        M.load_checkpoint(path, twin)
        x = rand_input((8, 8, 8), batch=3, seed=14)
        np.testing.assert_array_equal(model.forward(x).data, twin.forward(x).data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError) as ei:
            M.read_checkpoint(path)
        assert ei.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(M.CKPT_MAGIC + (99).to_bytes(4, "little"))
        with pytest.raises(FormatError) as ei:
            M.read_checkpoint(path)
        assert ei.value.offset == 8

    def test_truncated_payload(self, tmp_path):
        model = M.build_model(tiny_config(), seed=15)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError, match="truncated"):
            M.read_checkpoint(path)

    def test_mismatched_model_rejected(self, tmp_path):
        model = M.build_model(tiny_config(), seed=16)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        other = M.build_model(tiny_config(glb_channels=(4,)), seed=16)
        with pytest.raises(ConfigError, match="does not match|shape") as err:
            M.load_checkpoint(path, other)
        assert f"checkpoint {path}" in str(err.value)

    def test_refused_load_writes_nothing(self, tmp_path):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.build_model(tiny_config(), seed=17))
        # same record names; the SPT position tables differ in shape, and
        # records of the right shape come before them
        model = M.build_model(tiny_config(input_shape=(16, 8, 8)), seed=18)
        before = {name: arr.copy() for name, arr in model.state_arrays().items()}
        with pytest.raises(ConfigError, match="shape"):
            M.load_checkpoint(path, model)
        after = model.state_arrays()
        for name, arr in before.items():
            assert arr.tobytes() == after[name].tobytes(), name

    @pytest.mark.parametrize("step", ["write_records", "replace"])
    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch, step):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.build_model(tiny_config(), seed=19))
        old = path.read_bytes()
        write = M.write_records

        def write_part(fh, arrays):
            write(fh, dict(list(arrays.items())[:2]))
            raise OSError("disk full")

        def refuse(src, dst):
            raise OSError("disk full")

        if step == "write_records":
            monkeypatch.setattr(M, "write_records", write_part)
        else:
            monkeypatch.setattr(M.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            M.save_checkpoint(path, M.build_model(tiny_config(), seed=20))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_float64_model_refused_before_any_file_is_opened(self, tmp_path):
        # the records are float32, so saving a float64 model would round it silently
        path = tmp_path / "model.ckpt"
        with pytest.raises(ConfigError, match="float32.*float64"):
            M.save_checkpoint(path, M.build_model(tiny_config(), seed=21, dtype=np.float64))
        assert not path.exists() and not (tmp_path / "model.ckpt.tmp").exists()
        assert os.listdir(tmp_path) == []

    def test_non_finite_state_refused_before_any_file_is_opened(self, tmp_path):
        # `read_checkpoint` refuses a non-finite record, so such a file could never be loaded
        model = M.build_model(tiny_config(), seed=22)
        model.blocks[0].llb[0].bn.running_var[0] = np.inf
        with pytest.raises(NumericsError, match=r"blocks\.0\.llb\.cb0\.bn\.running_var"):
            M.save_checkpoint(tmp_path / "model.ckpt", model)
        assert os.listdir(tmp_path) == []

    def test_name_past_the_end(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(M.CKPT_MAGIC + struct.pack("<I", M.CKPT_VERSION) + struct.pack("<I", 8) + b"blocks")
        with pytest.raises(FormatError, match="truncated record name") as ei:
            M.read_checkpoint(path)
        assert ei.value.offset == 16  # after the record's name length field

    def test_extent_overflow(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        blob = M.CKPT_MAGIC + struct.pack("<I", 1)
        name = b"w"
        blob += struct.pack("<I", len(name)) + name + struct.pack("<I", 2) + struct.pack("<2I", 1 << 20, 1 << 20)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="overflow"):
            M.read_checkpoint(path)

    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        name = b"\xff\xfe"
        record = struct.pack("<I", len(name)) + name + struct.pack("<I", 1) + struct.pack("<I", 1)
        path.write_bytes(M.CKPT_MAGIC + struct.pack("<I", M.CKPT_VERSION) + record + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="UTF-8") as ei:
            M.read_checkpoint(path)
        assert ei.value.offset == 12

    @pytest.mark.parametrize(
        "second, match",
        [
            ({"w": np.zeros(2, dtype=np.float32)}, "duplicate"),
            ({"b": np.array([1.0, np.nan], dtype=np.float32)}, "non-finite"),
            ({"b": np.array([1.0, np.inf], dtype=np.float32)}, "non-finite"),
            ({"b": np.array([-np.inf, 1.0], dtype=np.float32)}, "non-finite"),
        ],
        ids=["duplicate", "non_finite", "plus_inf", "minus_inf"],
    )
    def test_bad_second_record(self, tmp_path, second, match):
        buf = io.BytesIO()
        buf.write(M.CKPT_MAGIC + struct.pack("<I", M.CKPT_VERSION))
        M.write_records(buf, {"w": np.ones(2, dtype=np.float32)})
        offset = buf.tell()
        M.write_records(buf, second)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(buf.getvalue())
        with pytest.raises(FormatError, match=match) as ei:
            M.read_checkpoint(path)
        assert ei.value.offset == offset


def read_or_format_error(path) -> dict | None:
    """read_checkpoint's records, or None if it raised FormatError; any other error escapes."""
    try:
        return M.read_checkpoint(path)
    except FormatError:
        return None


class TestCheckpointFuzz:
    """Whatever the bytes, read_checkpoint returns records or raises FormatError."""

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        # no_transformer keeps the file at 14 records (3.4 KB), so reading
        # every truncation of it stays well under a second
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        M.save_checkpoint(path, M.build_model(tiny_config(ablation="no_transformer"), seed=0))
        return path

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=256))
    def test_arbitrary_bytes_after_header(self, ckpt, tail):
        path = ckpt.with_name("tail.ckpt")
        path.write_bytes(M.CKPT_MAGIC + struct.pack("<I", M.CKPT_VERSION) + tail)
        read_or_format_error(path)

    def test_every_truncation(self, ckpt):
        full = M.read_checkpoint(ckpt)
        path = ckpt.with_name("truncated.ckpt")
        path.write_bytes(ckpt.read_bytes())
        for size in range(os.path.getsize(ckpt) - 1, -1, -1):
            os.truncate(path, size)
            records = read_or_format_error(path)
            # a cut on a record boundary reads as the records before it
            if records is not None:
                assert list(records) == list(full)[: len(records)], size

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, ckpt, data):
        blob = bytearray(ckpt.read_bytes())
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for index, mask in data.draw(st.lists(flips, min_size=1, max_size=4)):
            blob[index] ^= mask
        path = ckpt.with_name("flipped.ckpt")
        path.write_bytes(bytes(blob))
        read_or_format_error(path)
