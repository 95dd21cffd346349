"""The training objective the benchmark's train step uses.

Gaussian soft labels over the age bins and KL(q || p) against the model's
softmax output (label distribution learning, as in DLDL, Gao et al., IEEE
TIP 2017), then plain SGD. Built only from public `gldn.tensor` ops.
"""

from __future__ import annotations

import numpy as np

from gldn.errors import DomainError
from gldn.model import N_BINS
from gldn.tensor import Tensor, log, mul, tsum

AGE_MIN = 14
AGE_MAX = AGE_MIN + N_BINS - 1  # 97: one bin per year
BIN_CENTERS = AGE_MIN + np.arange(N_BINS, dtype=np.float64)
SIGMA = 1.0
LEARNING_RATE = 0.01


def soft_labels(ages) -> np.ndarray:
    """Rows of a Gaussian over the bins, centred on each age; float64 [B, 84]."""
    ages = np.asarray(ages, dtype=np.float64).reshape(-1)
    if np.any(~np.isfinite(ages)) or np.any((ages < AGE_MIN) | (ages > AGE_MAX)):
        raise DomainError(f"ages must lie in [{AGE_MIN}, {AGE_MAX}], got {ages}")
    z = -0.5 * ((BIN_CENTERS[None, :] - ages[:, None]) / SIGMA) ** 2
    q = np.exp(z - z.max(axis=1, keepdims=True))
    return q / q.sum(axis=1, keepdims=True)


def kl_loss(probs: Tensor, target: np.ndarray) -> Tensor:
    """Batch mean of KL(q || p) = sum q log q - sum q log p, p = `probs`."""
    q = target.astype(probs.dtype)
    q64 = q.astype(np.float64)
    q_log_q = float(np.sum(q64 * np.log(np.where(q64 > 0, q64, 1.0))))
    cross = tsum(mul(Tensor(q), log(probs)))
    return (q_log_q - cross) * (1.0 / probs.shape[0])


def sgd_update(params: dict[str, Tensor]):
    """p <- p - LEARNING_RATE * grad for every parameter, then zero the gradients."""
    for t in params.values():
        t.data -= LEARNING_RATE * t.grad
        t.zero_grad()
