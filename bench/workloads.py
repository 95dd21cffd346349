"""The benchmark's workloads and their seeded inputs.

Sizes are fixed per workload; only the seed varies. Inputs are made before
any timing starts, and the program under test receives only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gldn.model import ModelConfig

from objective import AGE_MAX, AGE_MIN


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: ModelConfig
    batch: int
    train: bool
    why: str


PAPER = (96, 112, 96)
DESK = (32, 48, 32)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "eval_paper_b1",
            ModelConfig(input_shape=PAPER),
            batch=1,
            train=False,
            why="per-scan prediction at paper scale: conv-heavy eval forward, no tape (run by hand, not gated)",
        ),
        Workload(
            "eval_desk_b4",
            ModelConfig(input_shape=DESK),
            batch=4,
            train=False,
            why="eval forward at desk scale: the no-tape prediction path, steady enough to gate on",
        ),
        Workload(
            "train_paper_b1",
            ModelConfig(input_shape=PAPER),
            batch=1,
            train=True,
            why="paper-scale train step: same layers as eval plus tape, backward and update",
        ),
        Workload(
            "train_desk_b4_spt",
            ModelConfig(input_shape=DESK, ablation="no_cnn"),
            batch=4,
            train=True,
            why="transformer-only train step: SPT, batched attention and per-op tape cost, no conv3d",
        ),
    )
}


def phantom_batch(shape, batch: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded phantom head volumes [B,1,D,H,W] (float32) and their ages [B].

    Each volume is an ellipsoidal brain whose ventricles widen and whose
    tissue contrast fades with age, plus Gaussian noise. Ages are uniform on
    [AGE_MIN, AGE_MAX].
    """
    rng = np.random.default_rng(seed)
    ages = rng.uniform(AGE_MIN, AGE_MAX, size=batch)
    axes = [np.linspace(-1.0, 1.0, n) for n in shape]
    z, y, x = np.meshgrid(*axes, indexing="ij", sparse=True)
    volumes = np.empty((batch, 1) + tuple(shape), dtype=np.float32)
    for b, age in enumerate(ages):
        span = (age - AGE_MIN) / (AGE_MAX - AGE_MIN)
        cz, cy, cx = rng.uniform(-0.05, 0.05, size=3)
        brain = ((z - cz) / 0.85) ** 2 + ((y - cy) / 0.9) ** 2 + ((x - cx) / 0.8) ** 2
        radius = 0.12 + 0.2 * span
        ventricles = ((z - cz) / radius) ** 2 + ((y - cy) / (1.6 * radius)) ** 2 + ((x - cx) / radius) ** 2
        vol = np.where(brain < 1.0, 0.9 - 0.3 * span * brain, 0.0)
        vol = np.where(ventricles < 1.0, 0.2, vol)
        vol = vol + rng.normal(0.0, 0.02, size=vol.shape)
        volumes[b, 0] = vol
    return volumes, ages
