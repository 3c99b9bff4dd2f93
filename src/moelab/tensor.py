"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Small on purpose: only the operations a decoder-only mixture-of-experts
language model needs.  Every operation is one call to ``_op``, which records
one node on a dynamic tape: its operands that require grad and one backward
that returns a gradient per operand.  ``Tensor.backward`` replays the tape in
reverse topological order, calling each node's backward once, and
accumulates gradients additively, so parameters shared between several
subexpressions (e.g. a tied embedding) receive the sum of all contributions.
Interior gradients are transient: each lives in the pass's own map until its
node is replayed, then is freed.  Only leaves (tensors with no parents on the
tape) keep ``.grad``, and a repeated pass adds its gradient to it once more.

The model's layers are single nodes with hand-written backwards: RMS norm,
causal attention with the relative-position bias, the GELU feed-forward
(stacked experts, one broadcast expert, or the gated GEGLU) and
cross-entropy.  Each repeats, in the same order, the arithmetic of the
composite of single ops it replaced, so its output is bit-identical to that
composite's, and it keeps only the arrays its backward reads (the attention
weights, not the score arrays they came from).  Their gradients agree with
the composites' to rounding, not bit for bit.

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
    "softmax",
    "log_softmax",
    "matmul",
    "embedding",
    "take_along_last",
    "concat",
    "rms_norm",
    "causal_attention",
    "gelu_ffn",
    "cross_entropy",
    "grad_check",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_EPS = 1e-6
_MASK_FILL = -1e30  # finite, but exp(-1e30 - max) underflows to exactly 0.0


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


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
    backward pass.  The library never writes into a parameter's array:
    ``adafactor_step`` and ``restore_params`` bind new arrays to ``data``.
    Only a caller writes in place, and only between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_back")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: list[tuple[Tensor, int]] = []
        self._back: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None

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
            if node._back is None:
                node._accumulate(g)
                continue
            parts = node._back(g)
            for parent, i in node._parents:
                prev = grads.get(parent)
                grads[parent] = parts[i] if prev is None else prev + parts[i]

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        return _op(
            np.add(self.data, other.data),
            (self, other),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a_data, b_data = self.data, other.data
        return _op(
            np.multiply(a_data, b_data),
            (self, other),
            lambda g: (_unbroadcast(g * b_data, self.shape), _unbroadcast(g * a_data, other.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a_data, b_data = self.data, other.data
        return _op(
            np.divide(a_data, b_data),
            (self, other),
            lambda g: (
                _unbroadcast(g / b_data, self.shape),
                _unbroadcast(-g * a_data / (b_data * b_data), other.shape),
            ),
        )

    # ---- structure -------------------------------------------------------

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        orig = self.shape
        return _op(self.data.reshape(tuple(shape)), (self,), lambda g: (g.reshape(orig),))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        return _op(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    # ---- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        reduced = tuple(range(self.ndim)) if axis is None else axis

        def back(g: np.ndarray) -> tuple[np.ndarray]:
            return (np.broadcast_to(g if keepdims else np.expand_dims(g, reduced), shape).copy(),)

        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)  # numpy rejects bad or repeated axes first
        axes = range(self.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
        count = math.prod(self.shape[a] for a in axes)  # a negative axis counts from the end
        return total * (1.0 / count)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _op(
    data: np.ndarray, parents: Sequence[Tensor], back: Callable[[np.ndarray], Sequence[np.ndarray]]
) -> Tensor:
    """The tape node for ``data``, whose ``back(g)`` returns one gradient per operand, in order.

    The node keeps an (operand, index) edge for each operand that requires
    grad, and ``back`` only if there is one, so a graph of constants holds no
    closure.  A constant operand's gradient is computed and dropped.
    """
    out = Tensor(data)
    out._parents = [(parent, i) for i, parent in enumerate(parents) if parent.requires_grad]
    if out._parents:
        out.requires_grad = True
        out._back = back
    return out


# ---- nonlinearity and normalizing ops -------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g: np.ndarray) -> tuple[np.ndarray]:
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _op(y, (x,), back)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    return _op(y, (x,), lambda g: (g - np.exp(y) * g.sum(axis=axis, keepdims=True),))


# ---- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product with numpy broadcasting over leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    return _op(
        np.matmul(a_data, b_data),
        (a, b),
        lambda g: (_left_grad(g, b_data, a_data.shape), _right_grad(a_data, g, b_data.shape)),
    )


def _left_grad(g: np.ndarray, b: np.ndarray, a_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``a`` in ``a @ b`` from the output gradient ``g``, summed to ``a_shape``."""
    return _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a_shape)


def _right_grad(a: np.ndarray, g: np.ndarray, b_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``b`` in ``a @ b`` from the output gradient ``g``, summed to ``b_shape``."""
    return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b_shape)


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

    def back(g: np.ndarray) -> tuple[np.ndarray]:
        cells = ids.reshape(-1, 1) * width + np.arange(width)
        return (_scatter_add(cells, g, shape),)

    return _op(table.data[ids], (table,), back)


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

    def back(g: np.ndarray) -> tuple[np.ndarray]:
        cells = np.arange(lead)[:, None] * shape[-1] + idx.reshape(lead, idx.shape[-1])
        return (_scatter_add(cells, g, shape),)

    return _op(np.take_along_axis(x.data, idx, axis=-1), (x,), back)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along their first axis; each part's gradient is its row slice."""
    parts = [_as_tensor(p) for p in parts]
    if not parts or any(p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeError(f"concat needs matching trailing shapes, got {[p.shape for p in parts]}")
    ends = np.cumsum([p.shape[0] for p in parts])
    return _op(np.concatenate([p.data for p in parts]), parts, lambda g: np.split(g, ends))


# ---- layers as single nodes ------------------------------------------------
# Each forward repeats the arithmetic of the layer's composite of the ops above,
# in the same order, so outputs are bit-identical to it; each node keeps only
# the arrays its backward reads.


def rms_norm(x: Tensor, scale: Tensor) -> Tensor:
    """x / sqrt(mean(x * x over the last axis) + 1e-6) * scale.

    Keeps only the [..., 1] inverse root mean square besides its operands.
    """
    xd, sd = x.data, scale.data
    r = ((xd * xd).sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]) + _NORM_EPS) ** -0.5

    def back(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gn = g * sd
        dr = (gn * xd).sum(axis=-1, keepdims=True)
        gx = gn * r - xd * (dr * (r * r * r) * (1.0 / xd.shape[-1]))
        return gx, _unbroadcast(g * (xd * r), sd.shape)

    return _op(xd * r * sd, (x, scale), back)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, bias_table: Tensor, buckets: np.ndarray) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias + causal mask) v per head, with bias[h, i, j] = bias_table[h, buckets[i, j]].

    ``q``, ``k``, ``v`` and the output are [..., S, H * d], heads side by side,
    H = ``bias_table.shape[0]``; ``buckets`` holds [S, S] bucket ids.  A future
    key's -1e30 score underflows to a weight of exactly 0.0.  The node keeps
    the attention weights, none of the scaled, biased or masked score arrays.
    """
    heads, seq, width = bias_table.shape[0], q.shape[-2], q.shape[-1]
    if width % heads:
        raise ShapeError(f"width {width} does not split into {heads} heads")

    def split(x: np.ndarray) -> np.ndarray:  # [..., S, H * d] -> [..., H, S, d]
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, width // heads)), -2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # [..., H, S, d] -> [..., S, H * d]
        return np.swapaxes(x, -2, -3).reshape(x.shape[:-3] + (seq, width))

    qd, kd, vd, table = split(q.data), split(k.data), split(v.data), bias_table.data
    scale = 1.0 / math.sqrt(width // heads)
    kt = np.swapaxes(kd, -1, -2)
    w = np.matmul(qd, kt)
    w *= scale
    w += table[:, buckets]
    w += np.where(np.arange(seq)[:, None] >= np.arange(seq), 0.0, _MASK_FILL)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g = split(g)
        gv = merge(_right_grad(w, g, vd.shape))
        gs = _left_grad(g, vd, w.shape)
        gs -= (gs * w).sum(axis=-1, keepdims=True)
        gs *= w
        cells = np.arange(heads)[:, None, None] * table.shape[1] + buckets
        gt = _scatter_add(cells, _unbroadcast(gs, gs.shape[-3:]), table.shape)
        gs *= scale
        gq = merge(_left_grad(gs, kt, qd.shape))
        gk = merge(np.swapaxes(_right_grad(qd, gs, kt.shape), -1, -2))
        return gq, gk, gv, gt

    return _op(merge(np.matmul(w, vd)), (q, k, v, bias_table), back)


def gelu_ffn(x: Tensor, w_in: Tensor, w_out: Tensor, gate: Tensor | None = None) -> Tensor:
    """GELU(x @ w_in) @ w_out, or with ``gate`` the GEGLU (GELU(x @ w_in) * (x @ gate)) @ w_out.

    GELU is exact: h * Phi(h), with Phi the standard normal CDF.  Weights
    broadcast as in ``matmul``: stacked [k, M, H] / [k, H, M] weights run k
    experts on a [k, C, M] buffer, and [M, H] / [H, M] weights apply to every
    leading index of ``x``.  The node keeps x @ w_in, its CDF and x @ gate;
    the activations are recomputed in backward.
    """
    xd, win, wout = x.data, w_in.data, w_out.data
    wg = None if gate is None else gate.data
    h = np.matmul(xd, win)
    cdf = 0.5 * (1.0 + erf(h * _INV_SQRT2))
    hg = None if wg is None else np.matmul(xd, wg)

    def hidden() -> tuple[np.ndarray, np.ndarray]:
        act = h * cdf
        return act, act if hg is None else act * hg

    def back(g: np.ndarray) -> list[np.ndarray]:
        act, u = hidden()
        grads = [None, None, _right_grad(u, g, wout.shape)]
        du = _left_grad(g, wout, u.shape)
        if hg is not None:
            dhg = du * act
            du = du * hg
            grads.append(_right_grad(xd, dhg, wg.shape))
        pdf = np.exp(-0.5 * h * h) * _INV_SQRT_2PI
        dh = du * (cdf + h * pdf)
        grads[1] = _right_grad(xd, dh, win.shape)
        gx = _left_grad(dh, win, xd.shape)
        grads[0] = gx if hg is None else gx + _left_grad(dhg, wg, xd.shape)
        return grads

    parents = (x, w_in, w_out) if gate is None else (x, w_in, w_out, gate)
    return _op(np.matmul(hidden()[1], wout), parents, back)


# ---- losses ----------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under ``logits``, as one node.

    ``logits`` has shape [..., vocab]; ``targets`` matches the leading shape.
    The node keeps the forward's exp(logits - max) and its row sums; the
    gradient is (softmax - onehot) * g / N.
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
    xd = logits.data
    e = xd - xd.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(e, targets[..., None].astype(np.intp), axis=-1)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    picked -= np.log(total)  # log-softmax at the targets
    n = picked.size

    def back(g: np.ndarray) -> tuple[np.ndarray]:
        grad = e / total
        grad.reshape(-1, vocab)[np.arange(n), targets.reshape(-1)] -= 1.0
        grad *= g * (1.0 / n)
        return (grad,)

    return _op(-(picked.sum() * (1.0 / n)), (logits,), back)


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
