"""Per-layer trace of one step, taken from outside the program.

The step is re-played as a chain of spans, each one a call into a public
function at a parameter scope: `model.cnn_block`, `spt.spt_part_forward`,
`model.aggregate`, `model.head_forward`, and the benchmark's own loss. Every
span's input enters as a fresh leaf `Tensor`, so the chain has one small
tape per span. Backward then runs span by span in reverse: a span's upstream
gradient is the `.grad` of the leaves that consumed its output, fed in as
`backward(tsum(mul(out, upstream)))`.

tracemalloc (which also sees numpy buffers) gives each span's retained bytes
after its forward, i.e. its tape, and its peak.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from gldn import model as M
from gldn import spt as S
from gldn.tensor import Tensor, backward, mul, no_grad, tsum

from objective import kl_loss, sgd_update

MB = 1e6
SPAN_FIELDS = ("fwd_s", "bwd_s", "retained_mb", "peak_mb")


def span_names() -> list[str]:
    """Every span the trace can report, in forward order (the paper's two fusion blocks)."""
    names = []
    for i in range(2):
        names += [f"model.blocks.{i}.llb.cb{j}" for j in range(2)]
        names += [f"spt.blocks.{i}.glb.part{k}" for k in range(3)]
        names.append(f"model.blocks.{i}.aggregate")
    return names + ["model.head", "bench.loss"]


def conv_gflop(model: M.GLDN, batch: int) -> dict[str, float]:
    """Forward GFLOP (2 per multiply-add) of each 3x3x3 same-padded conv."""
    out = {}
    shape = tuple(model.cfg.input_shape)
    for i, block in enumerate(model.blocks):
        if block.llb is not None:
            extent = shape
            for j, cb in enumerate(block.llb):
                c_out, c_in = cb.conv.weight.shape[:2]
                voxels = int(np.prod(extent))
                out[f"model.blocks.{i}.llb.cb{j}"] = 2 * batch * c_out * c_in * 27 * voxels / 1e9
                extent = tuple(e // 2 for e in extent)
        shape = tuple(e // 4 for e in shape)
    return out


def part_matmul_flop(part: S.SptPartConfig, volume: tuple[int, int, int], batch: int) -> int:
    """Forward FLOP of every matmul in one SPT part on a volume of that extent."""
    n_seq = batch * volume[part.axis]  # one token sequence per slice
    n = part.n_tokens
    m = n_seq * n
    d = part.embed_dim
    proj = 2 * m * part.token_dim * d
    # q, k, v, o projections 8md^2, FFN d->4d->d 16md^2, QK^T and AV 2 * 2 n^2 d per sequence
    encoder = part.depth * (24 * m * d * d + 4 * n_seq * n * n * d)
    merge = 2 * (m // 4) * (4 * d) * (2 * d)
    depatch = 2 * (m // 4) * (2 * d) * (part.patch * part.patch * part.out_channels)
    return proj + encoder + merge + depatch


def matmul_gflop(model: M.GLDN, batch: int) -> dict[str, float]:
    out = {}
    shape = tuple(model.cfg.input_shape)
    for i, block in enumerate(model.blocks):
        if block.glb_cfg is not None:
            volume = list(shape)
            for k, part in enumerate(block.glb_cfg.parts):
                out[f"spt.blocks.{i}.glb.part{k}"] = part_matmul_flop(part, tuple(volume), batch) / 1e9
                volume = [v if a == part.axis else v // 2 for a, v in enumerate(volume)]
        shape = tuple(e // 4 for e in shape)
    return out


def set_training(model: M.GLDN, flag: bool):
    """Put every BatchNorm in train or eval mode through the public block fields."""
    for block in model.blocks:
        for cb in block.llb or ():
            cb.bn.training = flag


@dataclass
class _Node:
    out: Tensor
    consumers: list[Tensor] = field(default_factory=list)


@dataclass
class SpanTrace:
    """Spans of one traced step plus the step's totals."""

    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    step_s: float = 0.0
    update_s: float = 0.0
    retained_mb: float = 0.0
    peak_alloc_mb: float = 0.0
    output: np.ndarray | None = None
    loss: float | None = None

    @property
    def backward_s(self) -> float:
        return sum(s["bwd_s"] for s in self.spans.values())


class _Chain:
    def __init__(self, x: np.ndarray, grad: bool, trace: SpanTrace):
        self.input = _Node(Tensor(x))
        self.grad = grad
        self.trace = trace
        self.nodes: list[tuple[str, _Node]] = []
        self.peak = 0

    def mark(self) -> int:
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def rise(self, start: int) -> tuple[int, int]:
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        return current - start, peak - start

    def leaf(self, node: _Node | None) -> Tensor | None:
        """A fresh leaf over `node`'s output; the model input never needs a grad."""
        if node is None:
            return None
        t = Tensor(node.out.data, requires_grad=self.grad and node is not self.input)
        node.consumers.append(t)
        return t

    def span(self, name, fn, *inputs: Tensor | None) -> _Node:
        start = self.mark()
        t0 = time.perf_counter()
        out = fn(*inputs)
        fwd = time.perf_counter() - t0
        retained, peak = self.rise(start)
        self.trace.spans[name] = {"fwd_s": fwd, "bwd_s": 0.0, "retained_mb": retained / MB, "peak_mb": peak / MB}
        node = _Node(out)
        self.nodes.append((name, node))
        return node

    def backward(self):
        for name, node in reversed(self.nodes):
            start = self.mark()
            t0 = time.perf_counter()
            if node.consumers:
                upstream = node.consumers[0].grad
                for c in node.consumers[1:]:
                    upstream = upstream + c.grad
                backward(tsum(mul(node.out, Tensor(upstream))))
            else:
                backward(node.out)
            bwd = time.perf_counter() - t0
            _, peak = self.rise(start)
            rec = self.trace.spans[name]
            rec["bwd_s"] = bwd
            rec["peak_mb"] = max(rec["peak_mb"], peak / MB)


def run_spans(model: M.GLDN, x: np.ndarray, target: np.ndarray | None, train: bool) -> SpanTrace:
    """The step's forward as a chain of spans and, when training, the loss and
    the span-by-span backward. Leaves the parameter grads filled; no update.

    Memory figures are zero unless tracemalloc is tracing; `target` is unused
    in eval.
    """
    trace = SpanTrace()
    set_training(model, train)
    order = model.cfg.conv_order
    chain = _Chain(x, train, trace)
    start = tracemalloc.get_traced_memory()[0]
    with nullcontext() if train else no_grad():
        h = chain.input
        for i, block in enumerate(model.blocks):
            local = glob = None
            if block.llb is not None:
                local = h
                for j, cb in enumerate(block.llb):
                    local = chain.span(
                        f"model.blocks.{i}.llb.cb{j}",
                        lambda t, cb=cb: M.cnn_block(t, cb, order),
                        chain.leaf(local),
                    )
            if block.glb_cfg is not None:
                glob = h
                for k, (part, params) in enumerate(zip(block.glb_cfg.parts, block.glb)):
                    glob = chain.span(
                        f"spt.blocks.{i}.glb.part{k}",
                        lambda t, part=part, params=params: S.spt_part_forward(t, part, params),
                        chain.leaf(glob),
                    )
            h = chain.span(f"model.blocks.{i}.aggregate", M.aggregate, chain.leaf(local), chain.leaf(glob))
        probs = chain.span("model.head", lambda t: M.head_forward(t, model.head_w, model.head_b), chain.leaf(h))
        trace.output = probs.out.data
        if train:
            loss = chain.span("bench.loss", lambda p: kl_loss(p, target), chain.leaf(probs))
            trace.loss = loss.out.item()
    trace.retained_mb = (tracemalloc.get_traced_memory()[0] - start) / MB
    if train:
        chain.backward()
    trace.peak_alloc_mb = chain.peak / MB
    return trace


def traced_step(model: M.GLDN, x: np.ndarray, target: np.ndarray | None, train: bool) -> SpanTrace:
    """One full step as spans under tracemalloc: `run_spans`, then SGD when training."""
    tracemalloc.start()
    try:
        t_step = time.perf_counter()
        trace = run_spans(model, x, target, train)
        if train:
            t0 = time.perf_counter()
            sgd_update(model.parameters())
            trace.update_s = time.perf_counter() - t0
        trace.step_s = time.perf_counter() - t_step
    finally:
        tracemalloc.stop()
    return trace
