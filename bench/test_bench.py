"""Tests of the benchmark itself: its loss, inputs, trace and workloads.

Run with `python -m pytest bench` from the repository root.
"""

import ast
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gldn.layers
from gldn import spt as S
from gldn.errors import DomainError
from gldn.layers import softmax
from gldn.model import ModelConfig, build_model
from gldn.tensor import Tensor, backward, grad_check, no_grad

import harness
from harness import run_workload
from objective import AGE_MAX, AGE_MIN, BIN_CENTERS, kl_loss, soft_labels
from spans import matmul_gflop, run_spans
from workloads import WORKLOADS, phantom_batch

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# chained spans against one monolithic backward: largest parameter-grad
# difference, relative to the largest grad of that parameter
GRAD_RTOL = {np.float64: 1e-10, np.float32: 1e-5}
RETIRED = {"model_forward", "glb_forward", "shape_chain"}


def tiny(ablation: str = "full") -> ModelConfig:
    """Two fusion blocks at a shape small enough for a test."""
    return ModelConfig(
        input_shape=(16, 16, 16),
        llb_channels=((2, 4), (4, 4)),
        glb_channels=(2, 2),
        patch=(2, 2),
        embed_dim=(8, 8),
        depth=(1, 1),
        heads=(2, 2),
        ablation=ablation,
    )


# -- objective ------------------------------------------------------------------


class TestObjective:
    def test_soft_labels(self):
        q = soft_labels([14.0, 40.3, 97.0])
        assert q.shape == (3, 84)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert list(BIN_CENTERS[q.argmax(axis=1)]) == [14, 40, 97]

    @pytest.mark.parametrize("age", [13.9, 97.1, float("nan")])
    def test_soft_labels_domain(self, age):
        with pytest.raises(DomainError):
            soft_labels([age])

    def test_kl_is_zero_only_at_target(self):
        # a target wide enough that no bin is 0
        q = np.exp(-0.5 * ((BIN_CENTERS[None, :] - np.array([[30.0], [71.5]])) / 20.0) ** 2)
        q /= q.sum(axis=1, keepdims=True)
        at_target = kl_loss(Tensor(q, dtype=np.float64), q).item()
        assert abs(at_target) < 1e-12
        uniform = np.full_like(q, 1.0 / q.shape[1])
        expected = np.sum(q * np.log(q / uniform)) / q.shape[0]
        assert kl_loss(Tensor(uniform), q).item() == pytest.approx(expected, rel=1e-12)
        assert expected > 0.1

    def test_kl_grad_check_float64(self):
        rng = np.random.default_rng(0)
        q = soft_labels(rng.uniform(AGE_MIN, AGE_MAX, size=3))
        logits = Tensor(rng.normal(size=(3, 84)), requires_grad=True, dtype=np.float64)
        for result in grad_check(lambda z: kl_loss(softmax(z), q), [logits], tol=1e-7):
            assert result.passed, str(result)


def test_phantom_batch_is_seeded():
    a, ages_a = phantom_batch((16, 24, 16), 3, seed=5)
    b, ages_b = phantom_batch((16, 24, 16), 3, seed=5)
    c, _ = phantom_batch((16, 24, 16), 3, seed=6)
    assert a.shape == (3, 1, 16, 24, 16) and a.dtype == np.float32
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ages_a, ages_b)
    assert not np.array_equal(a, c)
    assert np.all((ages_a >= AGE_MIN) & (ages_a <= AGE_MAX))


# -- trace validity -----------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ablation", ["full", "no_cnn", "no_transformer"])
def test_spans_reproduce_the_monolithic_step(ablation, dtype):
    cfg = tiny(ablation)
    x, ages = phantom_batch(cfg.input_shape, 2, seed=1)
    x = x.astype(dtype)
    target = soft_labels(ages)
    whole = build_model(cfg, seed=3, dtype=dtype)
    chained = build_model(cfg, seed=3, dtype=dtype)

    probs = whole(Tensor(x), training=True)
    loss = kl_loss(probs, target)
    backward(loss)
    trace = run_spans(chained, x, target, train=True)

    np.testing.assert_array_equal(trace.output, probs.data)
    assert trace.loss == loss.item()
    for name, p in whole.parameters().items():
        g = chained.parameters()[name].grad
        scale = max(float(np.max(np.abs(p.grad))), np.finfo(dtype).tiny)
        assert np.max(np.abs(g - p.grad)) <= GRAD_RTOL[dtype] * scale, name
    expected = {"bench.loss", "model.head", "model.blocks.0.aggregate", "model.blocks.1.aggregate"}
    if ablation != "no_cnn":
        expected |= {f"model.blocks.{i}.llb.cb{j}" for i in range(2) for j in range(2)}
    if ablation != "no_transformer":
        expected |= {f"spt.blocks.{i}.glb.part{k}" for i in range(2) for k in range(3)}
    assert set(trace.spans) == expected


def test_eval_spans_reproduce_forward():
    cfg = tiny()
    x, _ = phantom_batch(cfg.input_shape, 1, seed=2)
    model = build_model(cfg, seed=4)
    trace = run_spans(model, x, None, train=False)
    with no_grad():
        expected = model(Tensor(x), training=False).data
    np.testing.assert_array_equal(trace.output, expected)
    assert all(s["bwd_s"] == 0.0 for s in trace.spans.values())


def test_matmul_flop_count_matches_the_matmuls_run(monkeypatch):
    counted = []
    real = gldn.layers.matmul

    def counting(a, b):
        out = real(a, b)
        counted.append(2 * out.size * a.shape[-1])
        return out

    monkeypatch.setattr(gldn.layers, "matmul", counting)
    batch = 2
    model = build_model(tiny("no_cnn"), seed=0)
    x = Tensor(phantom_batch(model.cfg.input_shape, batch, seed=0)[0])
    expected = matmul_gflop(model, batch)
    for i, block in enumerate(model.blocks):
        for k, (part, params) in enumerate(zip(block.glb_cfg.parts, block.glb)):
            counted.clear()
            x = S.spt_part_forward(x, part, params)
            assert sum(counted) / 1e9 == pytest.approx(expected[f"spt.blocks.{i}.glb.part{k}"], rel=1e-12)


# -- workloads ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.05)
    monkeypatch.setattr(harness, "FRESH_FIRST_SECONDS", 0.0)
    wl = WORKLOADS[name]
    record = run_workload(replace(wl, cfg=tiny(wl.cfg.ablation)), seed=7, seconds=0.2, trace=trace, work_dir=tmp_path)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in record["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the checkpoint is removed


def test_benchmark_json_names_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: WORKLOADS[name].why for name in ("eval_desk_b4", "train_paper_b1", "train_desk_b4_spt")
    }
    assert BENCHMARK["paths"] == [HERE.name]


def test_bench_uses_only_public_entry_points():
    for path in HERE.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            for n in names:
                assert not (n.startswith("_") and not n.startswith("__")), f"{path.name}: {n}"
                assert n not in RETIRED, f"{path.name}: {n}"


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "eval_paper_b1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
