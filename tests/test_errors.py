"""Public entry points refuse bad input with the `errors.py` taxonomy, never a raw Python or numpy error."""

import ast
import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gldn import errors, layers as L, model as M, spt as S, tensor as T
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


def x4d():
    return T.Tensor(np.ones((1, 1, 4, 4)))


def conv(weight_shape=(2, 1, 3, 3, 3), bias_len=2, requires_grad=False):
    return L.Conv3dParams(T.Tensor(np.ones(weight_shape)), T.Tensor(np.zeros(bias_len), requires_grad=requires_grad))


def bn(stats_len, training=False):
    cb = cnn_block()
    cb.bn.running_mean, cb.bn.running_var = np.zeros(stats_len), np.ones(stats_len)
    cb.bn.training = training
    return cb.bn


def bn_gamma(gamma_len):
    s = cnn_block().bn
    s.gamma = T.Tensor(np.ones(gamma_len))
    return s


def fused_cnn_block_gamma(gamma_len):
    """The unrecorded eval CNN block, which folds the signs of BatchNorm's gamma into the kernel before the pool:
    the node checks gamma's length before it reads the signs."""
    cb = cnn_block()
    cb.bn = bn_gamma(gamma_len)
    with T.no_grad():
        M.cnn_block(x4(), cb, "relu_bn")


def load_checkpoint_of_other_names():
    """Load a checkpoint of the CNN-only model into the full model: same shapes where names meet."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        M.save_checkpoint(path, M.build_model(dataclasses.replace(CFG, ablation="no_transformer")))
        M.load_checkpoint(path, M.build_model(CFG))


def ones(*shape, requires_grad=False):
    return T.Tensor(np.ones(shape), requires_grad=requires_grad)


def attention_params(bq=None):
    """Attention parameters for q()'s width 4."""
    return L.AttentionParams(*(ones(4, 4) for _ in range(4)), ones(4) if bq is None else bq, ones(4), ones(4))


def attention_bias_length_1():
    """Multi-head attention whose query bias has one entry: an in-place add would broadcast it."""
    L.multi_head_attention(q(), attention_params(ones(1, requires_grad=True)), 2)


def row(call, error, id, match=None):
    """A case: `call` raises `error`, and its message names `match` where one is given."""
    return pytest.param(call, error, match, id=id)


def f64():
    return T.Tensor(np.ones(3), requires_grad=True, dtype=np.float64)


@pytest.mark.parametrize(
    "call, error, match",
    [
        row(
            lambda: M.build_model(CFG).forward(np.ones((1, 1, 8, 8, 8), np.float32)), DomainError, id="forward-ndarray"
        ),
        row(lambda: M.build_model(CFG, seed=-1), ConfigError, id="build-negative-seed"),
        row(lambda: M.build_model(CFG, seed="a"), ConfigError, id="build-str-seed"),
        row(lambda: T.reshape(t23(), (2.0, 3)), DimensionError, id="reshape-float-extent"),
        row(lambda: t23().reshape("a"), DimensionError, id="method-reshape-str"),
        row(lambda: T.permute_axes(t23(), (0, "1")), DimensionError, id="permute-str-axis"),
        row(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, 0, 2), ConfigError, id="plan-zero-heads"),
        row(lambda: L.multi_head_attention(q(), attention_params(), 2.0), DimensionError, id="attention-float-heads"),
        row(lambda: T.Tensor(np.array([1j])), DomainError, id="tensor-complex"),
        row(lambda: T.Tensor(np.ones(3), dtype=np.int32), ConfigError, id="tensor-int-dtype"),
        row(lambda: M.cnn_block(T.Tensor(np.ones((1, 1, 4, 4, 4))), cnn_block(), "bn_relu"), ConfigError,
            id="cnn-block-bn-relu"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(weight_shape=(2, 1, 3, 3)), bn(2)), DimensionError,
            id="conv-relu-bn-pool-4d-kernel", match="conv_relu_bn_pool"),
        row(lambda: L.softmax(T.Tensor(np.float64(1.0))), DimensionError, id="softmax-0d"),
        row(
            lambda: M.build_model(CFG).forward(T.Tensor(np.ones((1, 1, 8, 8, 8), np.float32)), training="eval"),
            ConfigError,
            id="forward-str-training",
        ),
        row(lambda: L.multi_head_attention(q(), attention_params(), True), DimensionError, id="attention-bool-heads"),
        row(lambda: L.multi_head_attention(q(), attention_params(), 0), DimensionError, id="attention-zero-heads"),
        row(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, True, 2), ConfigError, id="plan-bool-heads"),
        row(lambda: S.plan_spt((16, 16, 16), 1, 2, 8, 1, 2.0, 2), ConfigError, id="plan-float-heads"),
        row(lambda: S.plan_spt((16, 16, 16), 1, 2, 0, 1, 2, 2), ConfigError, id="plan-zero-embed-dim"),
        row(lambda: S.plan_spt((16, 16, 16), 1, 2.5, 8, 1, 2, 2), ConfigError, id="plan-float-patch"),
        row(lambda: T.grad_check(T.tsum, [f64()], sample=2.5), ConfigError, id="grad-check-float-sample"),
        row(lambda: T.grad_check(T.tsum, [f64()], sample=True), ConfigError, id="grad-check-bool-sample"),
        row(lambda: T.tsum(t23(), axis=True), DimensionError, id="tsum-bool-axis"),
        row(lambda: T.reshape(t23(), (True, 6)), DimensionError, id="reshape-bool-extent"),
        row(lambda: T.permute_axes(t23(), (True, 0)), DimensionError, id="permute-bool-axis"),
        row(lambda: T.concat([t23(), t23()], axis=True), DimensionError, id="concat-bool-axis"),
        row(lambda: fused_cnn_block_gamma(3), DimensionError, id="fused-cnn-block-gamma-length",
            match="conv_relu_bn_pool gamma"),
        row(lambda: L.conv_relu_bn_pool(x4d(), conv(), bn(2)), DimensionError, id="conv-relu-bn-pool-4d-input",
            match="conv_relu_bn_pool"),
        row(lambda: L.conv_relu_bn_pool(T.Tensor(np.ones((1, 1, 1, 1, 1))), conv(), bn(2, training=True)),
            DimensionError, id="conv-relu-bn-pool-train-one-element-per-channel", match=">= 2 elements"),
        row(lambda: L.global_avg_pool(x4d()), DimensionError, id="global-avg-pool-4d-input"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(bias_len=3), bn(2)), DimensionError,
            id="conv-relu-bn-pool-bias-length", match="bias"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(bias_len=1), bn(2)), DimensionError,
            id="conv-relu-bn-pool-bias-length-1", match="bias"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(), bn_gamma(3)), DimensionError,
            id="conv-relu-bn-pool-gamma-length", match="conv_relu_bn_pool gamma"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(), bn(3, training=True)), DimensionError,
            id="conv-relu-bn-pool-running-stats-length", match="conv_relu_bn_pool running_mean"),
        row(lambda: L.conv_relu_bn_pool(x4(), conv(), bn(3)), DimensionError,
            id="conv-relu-bn-pool-eval-running-stats-length", match="conv_relu_bn_pool running_mean"),
        row(lambda: T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2)))), DimensionError,
            id="matmul-1d-operand"),
        row(attention_bias_length_1, DimensionError, id="attention-bias-length-1", match="multi_head_attention"),
        row(lambda: L.feed_forward(t23(), ones(3, 12), ones(1, requires_grad=True), ones(12, 3), ones(3)),
            DimensionError, id="feed-forward-bias-length-1", match="feed_forward"),
        row(lambda: L.feed_forward(t23(), ones(4, 12), ones(12), ones(12, 3), ones(3)), DimensionError,
            id="feed-forward-weight-shape", match="feed_forward"),
        row(lambda: L.linear(t23(), ones(3, 2), ones(1, requires_grad=True)), DimensionError,
            id="linear-bias-length-1", match="linear"),
        row(lambda: L.linear(t23(), ones(3, 2, 2), ones(2)), DimensionError, id="linear-3d-weight", match="linear"),
        row(lambda: L.linear(T.Tensor(np.ones(3)), ones(3, 2), ones(2)), DimensionError, id="linear-1d-input",
            match="linear"),
        row(lambda: M.build_model(M.ModelConfig(patch=(8,))), ConfigError, id="config-block-count"),
        row(load_checkpoint_of_other_names, ConfigError, id="load-checkpoint-other-names"),
    ],
)
def test_bad_input_raises_its_taxonomy_class(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_every_raise_in_the_package_names_a_taxonomy_class():
    taxonomy = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)}
    raises = [
        (path.name, node)
        for path in sorted(Path(errors.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    ]
    # `raise X(...)` and `raise X(...) from e` name X; a bare `raise` names nothing
    raw = [f"{name}:{node.lineno}" for name, node in raises
           if not isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name) or exc.id not in taxonomy]
    assert raises and not raw, f"raises outside the errors.py taxonomy: {raw}"


def test_every_public_layer_function_runs_in_the_package():
    # `layers` keeps only what the model runs. The tests' reference layers live in tests/reference.py and
    # see gldn only through public names, so they share no private helper with the nodes they check.
    package = Path(errors.__file__).parent
    layers_tree = ast.parse((package / "layers.py").read_text())
    public = [node.name for node in layers_tree.body if isinstance(node, ast.FunctionDef) and node.name[0] != "_"]
    called = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = top.name if path.name == "layers.py" and isinstance(top, ast.FunctionDef) else None
            called |= {name for node in ast.walk(top) if isinstance(node, ast.Call)
                       and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) != own}
    uncalled = [name for name in public if name not in called]
    assert public and not uncalled, f"public functions of layers.py that the package never calls: {uncalled}"

    reference = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imports = [node for node in ast.walk(reference)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gldn"]
    private = [f"{node.module}.{alias.name}" for node in imports for alias in node.names if alias.name[0] == "_"]
    modules = {alias.asname or alias.name for node in imports if node.module == "gldn" for alias in node.names}
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(reference) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in modules and node.attr[0] == "_"]
    assert modules and not private, f"tests/reference.py reads private names of gldn: {private}"

    # softmax is the one node the reference builds on; any other would check a node against itself
    layers_names = {alias.asname or alias.name for node in imports if node.module == "gldn" for alias in node.names
                    if alias.name == "layers"}
    nodes = [alias.name for node in imports if node.module == "gldn.layers" for alias in node.names
             if alias.name in public and alias.name != "softmax"]
    nodes += [f"{node.func.value.id}.{node.func.attr}" for node in ast.walk(reference) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
              and node.func.value.id in layers_names and node.func.attr in public and node.func.attr != "softmax"]
    assert layers_names and not nodes, f"tests/reference.py calls nodes of gldn.layers: {nodes}"
