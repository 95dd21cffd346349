"""GLDN: global-local dependency network for volumetric age regression.

Everything runs on the package's own numpy-backed autodiff core — no deep
learning framework. Submodules:

- tensor: reverse-mode autodiff tensors and gradient checking
- layers: conv/norm/attention building blocks
- spt: the successive permuted transformer (global stream)
- model: fusion blocks, classifier head, checkpoints
"""

__version__ = "0.1.0"
