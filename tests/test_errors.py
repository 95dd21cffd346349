"""Public entry points refuse bad input with the `errors.py` taxonomy, never a raw Python or numpy error."""

import numpy as np
import pytest

from gldn import layers as L, model as M, spt as S, tensor as T
from gldn.errors import ConfigError, DimensionError, DomainError

CFG = M.ModelConfig(
    input_shape=(8, 8, 8), llb_channels=((2, 4),), glb_channels=(2,), patch=(2,), embed_dim=(8,), depth=(1,), heads=(2,)
)


def t23():
    return T.Tensor(np.ones((2, 3)))


def q():
    return T.Tensor(np.ones((1, 4, 4)))


def cnn_block():
    return M._build_cnn_block(M.ParamStore(np.random.default_rng(0), np.float64), "cb", 1, 2)


def x4():
    return T.Tensor(np.ones((1, 1, 4, 4, 4)))


def conv(weight_shape=(2, 1, 3, 3, 3), bias_len=2):
    return L.Conv3dParams(T.Tensor(np.ones(weight_shape)), T.Tensor(np.zeros(bias_len)))


def bn(stats_len, training=False):
    cb = cnn_block()
    cb.bn.running_mean, cb.bn.running_var = np.zeros(stats_len), np.ones(stats_len)
    cb.bn.training = training
    return cb.bn


def f64():
    return T.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: M.build_model(CFG).forward(np.ones((1, 1, 8, 8, 8), np.float32)), DomainError, id="forward-ndarray"
        ),
        pytest.param(lambda: M.build_model(CFG, seed=-1), ConfigError, id="build-negative-seed"),
        pytest.param(lambda: M.build_model(CFG, seed="a"), ConfigError, id="build-str-seed"),
        pytest.param(lambda: T.reshape(t23(), (2.0, 3)), DimensionError, id="reshape-float-extent"),
        pytest.param(lambda: t23().reshape("a"), DimensionError, id="method-reshape-str"),
        pytest.param(lambda: T.permute_axes(t23(), (0, "1")), DimensionError, id="permute-str-axis"),
        pytest.param(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, 0, 2), ConfigError, id="plan-zero-heads"),
        pytest.param(lambda: L.scaled_dot_attention(q(), q(), q(), 2.0), DimensionError, id="attention-float-heads"),
        pytest.param(lambda: T.Tensor(np.array([1j])), DomainError, id="tensor-complex"),
        pytest.param(lambda: T.Tensor(np.ones(3), dtype=np.int32), ConfigError, id="tensor-int-dtype"),
        pytest.param(lambda: M.cnn_block(T.Tensor(np.ones((1, 1, 4, 4, 4))), cnn_block(), "bn_relu"), ConfigError,
                     id="cnn-block-bn-relu"),
        pytest.param(lambda: L.conv3d(x4(), conv(bias_len=3)), DimensionError, id="conv-bias-length"),
        pytest.param(lambda: L.conv3d_pool(x4(), conv(bias_len=3), np.ones(2)), DimensionError,
                     id="conv-pool-bias-length"),
        pytest.param(lambda: L.conv3d(x4(), conv(weight_shape=(2, 1, 3, 3))), DimensionError, id="conv-4d-kernel"),
        pytest.param(lambda: L.batchnorm3d(T.Tensor(np.ones((1, 2, 2, 2, 2))), bn(3)), DimensionError,
                     id="batchnorm-running-stats-length"),
        pytest.param(lambda: L.batchnorm3d(T.Tensor(np.ones((1, 2, 2, 2, 2))), bn(3, training=True)), DimensionError,
                     id="batchnorm-train-running-stats-length"),
        pytest.param(lambda: L.softmax(T.Tensor(np.float64(1.0))), DimensionError, id="softmax-0d"),
        pytest.param(
            lambda: M.build_model(CFG).forward(T.Tensor(np.ones((1, 1, 8, 8, 8), np.float32)), training="eval"),
            ConfigError,
            id="forward-str-training",
        ),
        pytest.param(lambda: L.scaled_dot_attention(q(), q(), q(), True), DimensionError, id="attention-bool-heads"),
        pytest.param(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, True, 2), ConfigError, id="plan-bool-heads"),
        pytest.param(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, 2.0, 2), ConfigError, id="plan-float-heads"),
        pytest.param(lambda: S.plan_spt((16, 16, 16), 1, 2, 0, 1, 2, 2), ConfigError, id="plan-zero-embed-dim"),
        pytest.param(lambda: S.plan_spt((16, 16, 16), 1, 2.5, 8, 1, 2, 2), ConfigError, id="plan-float-patch"),
        pytest.param(lambda: T.grad_check(T.tsum, [f64()], sample=2.5), ConfigError, id="grad-check-float-sample"),
        pytest.param(lambda: T.grad_check(T.tsum, [f64()], sample=True), ConfigError, id="grad-check-bool-sample"),
        pytest.param(lambda: T.tsum(t23(), axis=True), DimensionError, id="tsum-bool-axis"),
        pytest.param(lambda: T.reshape(t23(), (True, 6)), DimensionError, id="reshape-bool-extent"),
        pytest.param(lambda: T.permute_axes(t23(), (True, 0)), DimensionError, id="permute-bool-axis"),
        pytest.param(lambda: T.concat([t23(), t23()], axis=True), DimensionError, id="concat-bool-axis"),
    ],
)
def test_bad_input_raises_its_taxonomy_class(call, error):
    with pytest.raises(error):
        call()
