"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Small on purpose: only the operations a decoder-only mixture-of-experts
language model needs.  Every operation is one call to ``_op``, which records
a gradient closure per operand that requires grad on a dynamic tape;
``Tensor.backward`` replays the tape in reverse topological order and
accumulates gradients additively, so parameters shared between several
subexpressions (e.g. a tied embedding) receive the sum of all contributions.
Interior gradients are transient: each lives in the pass's own map until its
node is replayed, then is freed.  Only leaves (tensors with no parents on the
tape) keep ``.grad``, and a repeated pass adds its gradient to it once more.

All math is double precision.  Nothing here prevents NaN or Inf from flowing
through; detecting them is the caller's job (the trainer does exactly that).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "gelu",
    "softmax",
    "log_softmax",
    "matmul",
    "embedding",
    "take_along_last",
    "concat",
    "cross_entropy",
    "grad_check",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


GradFn = Callable[[np.ndarray], np.ndarray]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting introduced or expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 n-d array plus an optional gradient of the same shape.

    Tensor data is treated as immutable between construction and the end of a
    backward pass; the trainer mutates ``data`` in place only between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: list[tuple[Tensor, GradFn]] = []

    # ---- bookkeeping -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g  # a copy in data's memory layout, not an alias of g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode pass from a scalar.  Adds this pass's gradient to every leaf's ``grad``.

        Interior gradients live in a map local to the pass: a node's first
        contribution is kept as it comes, later ones are summed out of place,
        and the entry is dropped once the node is replayed.  Interior nodes
        keep ``grad is None``, so a second pass on the same graph adds exactly
        one more gradient to each leaf.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node)
            if not node._parents:
                node._accumulate(g)
            for parent, fn in node._parents:
                part = fn(g)
                prev = grads.get(parent)
                grads[parent] = part if prev is None else prev + part

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        return _op(
            np.add(self.data, other.data),
            (self, lambda g: _unbroadcast(g, self.shape)),
            (other, lambda g: _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        return _op(
            np.subtract(self.data, other.data),
            (self, lambda g: _unbroadcast(g, self.shape)),
            (other, lambda g: _unbroadcast(-g, other.shape)),
        )

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a_data, b_data = self.data, other.data
        return _op(
            np.multiply(a_data, b_data),
            (self, lambda g: _unbroadcast(g * b_data, self.shape)),
            (other, lambda g: _unbroadcast(g * a_data, other.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a_data, b_data = self.data, other.data
        return _op(
            np.divide(a_data, b_data),
            (self, lambda g: _unbroadcast(g / b_data, self.shape)),
            (other, lambda g: _unbroadcast(-g * a_data / (b_data * b_data), other.shape)),
        )

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return _op(-self.data, (self, lambda g: -g))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        p = float(exponent)
        x = self.data
        return _op(x**p, (self, lambda g: g * p * x ** (p - 1.0)))

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    # ---- structure -------------------------------------------------------

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        orig = self.shape
        return _op(self.data.reshape(tuple(shape)), (self, lambda g: g.reshape(orig)))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        return _op(self.data.transpose(axes), (self, lambda g: g.transpose(inverse)))

    def swap_last2(self) -> "Tensor":
        if self.ndim < 2:
            raise ShapeError(f"swap_last2 needs ndim >= 2, got shape {self.shape}")
        axes = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        return self.transpose(axes)

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        reduced = tuple(range(self.ndim)) if axis is None else axis

        def back(g: np.ndarray) -> np.ndarray:
            return np.broadcast_to(g if keepdims else np.expand_dims(g, reduced), shape).copy()

        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self, back))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)  # numpy rejects bad or repeated axes first
        axes = range(self.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
        count = math.prod(self.shape[a] for a in axes)  # a negative axis counts from the end
        return total * (1.0 / count)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _op(data: np.ndarray, *edges: tuple[Tensor, GradFn]) -> Tensor:
    """The tape node for ``data``: one (parent, grad_fn) edge per operand.

    Constants stay off the tape so graphs only retain what backward needs.
    """
    out = Tensor(data)
    out._parents = [(parent, fn) for parent, fn in edges if parent.requires_grad]
    out.requires_grad = bool(out._parents)
    return out


# ---- nonlinearity and normalizing ops -------------------------------------


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error GELU: x * Phi(x), with Phi the standard normal CDF."""
    x = _as_tensor(x)
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))

    def back(g: np.ndarray) -> np.ndarray:
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return g * (cdf + xd * pdf)

    return _op(xd * cdf, (x, back))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g: np.ndarray) -> np.ndarray:
        inner = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - inner)

    return _op(y, (x, back))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def back(g: np.ndarray) -> np.ndarray:
        return g - np.exp(y) * g.sum(axis=axis, keepdims=True)

    return _op(y, (x, back))


# ---- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product with numpy broadcasting over leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def back_a(g: np.ndarray) -> np.ndarray:
        ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
        return _unbroadcast(ga, a_data.shape)

    def back_b(g: np.ndarray) -> np.ndarray:
        gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
        return _unbroadcast(gb, b_data.shape)

    return _op(np.matmul(a_data, b_data), (a, back_a), (b, back_b))


# ---- gather / scatter ------------------------------------------------------


def _scatter_add(cells: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of ``shape`` plus each value of ``g`` at its flat cell id.

    Each cell sums its values in index order from 0.0, as ``np.add.at`` does.
    """
    return np.bincount(cells.reshape(-1), weights=g.reshape(-1), minlength=math.prod(shape)).reshape(shape)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradient scatter-adds into the table."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"ids out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    shape = table.shape
    width = math.prod(shape[1:])

    def back(g: np.ndarray) -> np.ndarray:
        cells = ids.reshape(-1, 1) * width + np.arange(width)
        return _scatter_add(cells, g, shape)

    return _op(table.data[ids], (table, back))


def take_along_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis: out[..., k] = x[..., idx[..., k]]."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape[:-1] != x.shape[:-1]:
        raise ShapeError(f"index shape {idx.shape} does not match {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise IndexError(f"idx out of range [0, {x.shape[-1]}): min={idx.min()}, max={idx.max()}")
    shape = x.shape
    lead = math.prod(shape[:-1])

    def back(g: np.ndarray) -> np.ndarray:
        cells = np.arange(lead)[:, None] * shape[-1] + idx.reshape(lead, idx.shape[-1])
        return _scatter_add(cells, g, shape)

    return _op(np.take_along_axis(x.data, idx, axis=-1), (x, back))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along their first axis; each part's gradient is its row slice."""
    parts = [_as_tensor(p) for p in parts]
    if not parts or any(p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeError(f"concat needs matching trailing shapes, got {[p.shape for p in parts]}")
    ends = np.cumsum([p.shape[0] for p in parts])
    edges = [(p, lambda g, lo=end - p.shape[0], hi=end: g[lo:hi]) for p, end in zip(parts, ends)]
    return _op(np.concatenate([p.data for p in parts]), *edges)


# ---- losses ----------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under ``logits``.

    ``logits`` has shape [..., vocab]; ``targets`` matches the leading shape.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(
            f"target ids out of range [0, {vocab}): min={targets.min()}, max={targets.max()}"
        )
    lsm = log_softmax(logits, axis=-1)
    picked = take_along_last(lsm, targets[..., None].astype(np.intp))
    return -picked.mean()


# ---- verification ----------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central finite differences.

    Relative error uses a 1e-6 floor in the denominator so elements whose true
    gradient sits at the finite-difference noise floor do not dominate.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError(f"eps must lie in (0, 1e-3], got {eps}")
    base = np.array(x.data, dtype=np.float64, copy=True)
    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise ShapeError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
    out.backward()
    analytic = np.zeros_like(base) if probe.grad is None else probe.grad.copy()

    numeric = np.zeros_like(base)
    flat = numeric.reshape(-1)
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += eps
        hi = float(f(Tensor(bumped.reshape(base.shape))).data)
        bumped[i] -= 2.0 * eps
        lo = float(f(Tensor(bumped.reshape(base.shape))).data)
        flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom)) if base.size else 0.0
