"""Dense N-d tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous numpy buffer (float32 by default, float64 for
gradient checking). Differentiable operations record a node holding edges to
its parents (the nodes that produced its inputs, or the leaf inputs that
require grad) and a backward rule that captures only what it reads, so an op
output lives only while a rule reads it or the caller holds it.
`backward(loss)` replays the nodes in exact reverse creation order, summing
gradients over all paths. Gradients land only on leaves (parameters and
inputs created with requires_grad); op outputs pass theirs on and keep none.
Forward outputs and the gradients that reach leaves are checked for NaN/Inf,
and non-finite values raise NumericsError at the op that produced them.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericsError

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_node_counter = itertools.count()


def all_finite(a: np.ndarray) -> bool:
    """No NaN or +-inf in `a`, and no temporary of its size: max propagates NaN; an inf is max or min."""
    return bool(np.isfinite(a.max()) and np.isfinite(a.min()))


@contextmanager
def no_grad():
    """Disable tape recording inside the block (eval passes, finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeNode:
    """One recorded primitive application: parent edges plus a backward rule.

    `parents[i]` is the node that produced input i, the input itself if it is
    a leaf that requires grad, or None if no gradient flows to it.
    `backward_fn(grad_out) -> tuple of grads aligned with the inputs` (entries
    may be None for non-differentiable arguments). `order` is a globally
    increasing creation index; a parent is always older than its consumers,
    so reverse traversal processes every consumer of a node before the node
    itself, which is what makes plain `+=` accumulation correct for shared
    inputs.
    """

    __slots__ = ("parents", "backward_fn", "order")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn
        self.order = next(_node_counter)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        try:
            arr = np.ascontiguousarray(data, dtype=dtype)
        except (TypeError, ValueError) as e:
            raise DomainError(f"tensor data must be numeric, got {type(data).__name__}: {e}") from e
        if any(n <= 0 for n in arr.shape):
            raise DimensionError(f"tensor extents must be positive, got shape {arr.shape}")
        if not all_finite(arr):
            raise NumericsError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        # Leaves created with requires_grad get an eager zero grad buffer that
        # backward adds into, so an unreachable parameter reports zero, not absence.
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._node = None

    @classmethod
    def _from_op(cls, data, requires_grad, node):
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        out._node = node
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other, like=self), self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Coerce scalars/arrays to a non-grad Tensor, matching `like`'s dtype."""
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(value), dtype=dtype)


def apply_op(out_data: np.ndarray, inputs, backward_fn, check: bool = True) -> Tensor:
    """Create the output of a differentiable primitive and record its node.

    `backward_fn(grad_out)` must return per-input gradients (or None). Pure
    data-movement ops may pass check=False since their inputs were already
    validated.
    """
    if check and not all_finite(out_data):
        raise NumericsError(
            f"non-finite values produced by forward op {backward_fn.__qualname__}"
            f" (output shape {out_data.shape}, dtype {out_data.dtype})"
        )
    requires = _grad_enabled and any(t.requires_grad for t in inputs)
    if not requires:
        return Tensor._from_op(out_data, False, None)
    parents = tuple(t._node or (t if t.requires_grad else None) for t in inputs)
    return Tensor._from_op(out_data, True, TapeNode(parents, backward_fn))


def _fit(np_fn, *args):
    """Apply a numpy shape-taking op; shapes it cannot combine raise DimensionError."""
    try:
        return np_fn(*args)
    except ValueError as e:
        raise DimensionError(f"{np_fn.__name__}: {e}") from e


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return apply_op(_fit(np.add, a.data, b.data), (a, b), bwd)


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return apply_op(_fit(np.subtract, a.data, b.data), (a, b), bwd)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return apply_op(_fit(np.multiply, a.data, b.data), (a, b), bwd)


def div(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = _fit(np.divide, a.data, b.data)
    return apply_op(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return apply_op(-a.data, (a,), lambda g: (-g,), check=False)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        return (g * out_data,)

    return apply_op(out_data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        return (g / a.data,)

    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)
    return apply_op(out_data, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bwd(g):
        return (g * (0.5 / out_data),)

    return apply_op(out_data, (a,), bwd)


# -- reductions ---------------------------------------------------------------


def _normalize_axes(axis, ndim):
    """Axes as non-negative ints; an axis outside [-ndim, ndim) raises DimensionError."""
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    for a in axis:
        if not -ndim <= a < ndim:
            raise DimensionError(f"axis {a} out of range for rank {ndim}")
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return apply_op(np.asarray(out_data), (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    out_data = a.data.mean(axis=axes, keepdims=keepdims)
    inv = 1.0 / count
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g * inv, shape).astype(dtype, copy=False),)

    return apply_op(np.asarray(out_data), (a,), bwd)


# -- structural ops -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    out_data = _fit(np.matmul, a.data, b.data)  # non-broadcastable batch extents raise

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return apply_op(out_data, (a, b), bwd)


def permute_axes(a: Tensor, perm) -> Tensor:
    perm = tuple(perm)
    if sorted(perm) != list(range(a.ndim)):
        raise DimensionError(f"perm {perm} is not a permutation of 0..{a.ndim - 1}")
    inverse = np.argsort(perm)
    # materialize a contiguous copy: storage stays row-major by construction
    out_data = np.ascontiguousarray(np.transpose(a.data, perm))

    def bwd(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return apply_op(out_data, (a,), bwd, check=False)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = _fit(np.reshape, a.data, shape)
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return apply_op(out_data, (a,), bwd, check=False)


def concat(parts, axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat of zero parts")
    rank = parts[0].ndim
    (axis,) = _normalize_axes(axis, rank)
    for p in parts[1:]:
        if p.ndim != rank:
            raise DimensionError(
                f"concat rank mismatch: {parts[0].shape} vs {p.shape}"
            )
        for d in range(rank):
            if d != axis and p.shape[d] != parts[0].shape[d]:
                raise DimensionError(
                    f"concat extents differ off axis {axis}: {parts[0].shape} vs {p.shape}"
                )
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return apply_op(out_data, tuple(parts), bwd, check=False)


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor):
    """Add d(loss)/d(leaf) into `.grad` of every leaf the loss depends on.

    Gradients land only on leaves, the tensors no recorded op produced. An op
    output never gets a `.grad`: its incoming gradient is held only until its
    own backward rule has run. A gradient bound for a leaf is checked for
    NaN/Inf first and raises NumericsError naming the op whose backward rule
    produced it, leaving `.grad` untouched. Repeated calls without zeroing
    accumulate (gradients are linear, so two passes equal one pass over the
    summed losses).
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ConfigError("loss does not require grad; nothing was recorded")
    if loss._node is None:
        loss.grad += 1
        return

    # Max-heap on creation order: a node is pushed when it first gets a
    # gradient and popped only after all its consumers, which are newer.
    flow = {loss._node: np.ones_like(loss.data)}
    heap = [(-loss._node.order, loss._node)]
    while heap:
        node = heapq.heappop(heap)[1]
        for parent, gi in zip(node.parents, node.backward_fn(flow.pop(node))):
            if gi is None or parent is None:
                continue
            if type(parent) is TapeNode:
                acc = flow.get(parent)
                if acc is None:
                    flow[parent] = gi
                    heapq.heappush(heap, (-parent.order, parent))
                else:
                    flow[parent] = acc + gi
            elif all_finite(gi):
                parent.grad += gi
            else:
                raise NumericsError(
                    f"non-finite gradient produced by backward op {node.backward_fn.__qualname__}"
                    f" (leaf shape {parent.shape}, dtype {parent.dtype})"
                )


# -- gradient checking ---------------------------------------------------------


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    n_checked: int
    passed: bool
    worst_index: tuple | None = None
    message: str = ""

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        extra = f" ({self.message})" if self.message else ""
        return f"{self.name}: max rel err {self.max_rel_err:.3e} over {self.n_checked} entries -> {status}{extra}"


def grad_check(f, inputs, tol: float = 1e-4, sample: int | None = None) -> list[GradCheckResult]:
    """Compare analytic gradients of scalar `f(*inputs)` against central finite
    differences.

    Inputs must be float64 tensors with requires_grad. The relative error is
    |a - n| / max(1, |a|, |n|), floored at scale 1 so near-zero gradients do
    not amplify finite-difference noise. With `sample`, at most that many
    entries per input are probed (seeded choice) — full check otherwise.
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ConfigError("grad_check requires float64 inputs")
        if not t.requires_grad:
            raise ConfigError("grad_check inputs must require grad")

    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise DimensionError("grad_check target must be scalar-valued")
    backward(out)
    analytic = [t.grad.copy() for t in inputs]

    step = 1e-5
    rng = np.random.default_rng(0)
    results = []
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        n = flat.size
        if sample is not None and sample < n:
            idxs = rng.choice(n, size=sample, replace=False)
        else:
            idxs = np.arange(n)
        max_err = 0.0
        worst = None
        message = ""
        ok = True
        for i in idxs:
            saved = flat[i]
            try:
                with no_grad():
                    flat[i] = saved + step
                    f_plus = f(*inputs).item()
                    flat[i] = saved - step
                    f_minus = f(*inputs).item()
            except NumericsError as e:
                ok = False
                message = f"non-finite during probe at flat index {i}: {e}"
                flat[i] = saved
                break
            finally:
                flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = ana.reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > max_err:
                max_err = err
                worst = np.unravel_index(i, t.shape)
        results.append(
            GradCheckResult(
                name=f"input{len(results)}",
                max_rel_err=max_err,
                n_checked=len(idxs),
                passed=ok and max_err <= tol,
                worst_index=worst,
                message=message,
            )
        )
    return results
