"""End to end: the composed network learns age from phantom volumes.

A tiny GLDN trained with Adam on the benchmark's KL objective must predict
held-out ages clearly better than the mean predictor. The optimizer and the
readout (the expected age under the predicted distribution) live here, so the
package itself holds no training loop.
"""

import importlib
from pathlib import Path

import numpy as np

from gldn.model import ModelConfig, build_model
from gldn.tensor import Tensor, backward, no_grad

BENCH = Path(__file__).resolve().parents[1] / "bench"
CFG = ModelConfig(
    input_shape=(16, 16, 16),
    llb_channels=((4, 8),),
    glb_channels=(4,),
    patch=(2,),
    embed_dim=(8,),
    depth=(1,),
    heads=(2,),
)
LR, BATCH, EPOCHS, SETTLE_PASSES = 1e-2, 16, 15, 10


def adam(params, lr, betas=(0.9, 0.999), eps=1e-8):
    """An Adam step function over `params` (Kingma & Ba 2015) that zeroes the gradients it applies."""
    moments = {name: (np.zeros_like(t.data), np.zeros_like(t.data)) for name, t in params.items()}
    step = 0

    def update():
        nonlocal step
        step += 1
        for name, t in params.items():
            m, v = moments[name]
            m += (1 - betas[0]) * (t.grad - m)
            v += (1 - betas[1]) * (t.grad * t.grad - v)
            m_hat = m / (1 - betas[0] ** step)
            v_hat = v / (1 - betas[1] ** step)
            t.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(t.dtype)
            t.zero_grad()

    return update


def batches(n):
    return [slice(i, i + BATCH) for i in range(0, n, BATCH)]


def test_learns_age_better_than_the_mean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    objective = importlib.import_module("objective")
    workloads = importlib.import_module("workloads")
    x_train, age_train = workloads.phantom_batch(CFG.input_shape, 64, seed=1)
    x_test, age_test = workloads.phantom_batch(CFG.input_shape, 32, seed=2)
    target = objective.soft_labels(age_train)

    model = build_model(CFG, seed=0)
    update = adam(model.parameters(), LR)
    for _ in range(EPOCHS):
        for b in batches(len(x_train)):
            backward(objective.kl_loss(model(Tensor(x_train[b]), training=True), target[b]))
            update()
    with no_grad():  # BatchNorm's running statistics lag weights that moved fast; let them settle
        for _ in range(SETTLE_PASSES):
            for b in batches(len(x_train)):
                model(Tensor(x_train[b]), training=True)
        probs = model(Tensor(x_test), training=False).data

    predicted = probs.astype(np.float64) @ objective.BIN_CENTERS
    mae = np.abs(predicted - age_test).mean()
    mean_mae = np.abs(age_train.mean() - age_test).mean()
    assert mae <= 0.75 * mean_mae, (mae, mean_mae)
