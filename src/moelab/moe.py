"""Top-2 expert routing with capacity limits and the load-balancing loss.

Every token picks its two highest-probability experts under a learned linear
gate (its one expert when E=1).  Each expert accepts at most ``capacity``
assignments per batch; an assignment that finds its expert full is dropped
without renormalizing the surviving slot.  A token that loses all its slots
passes through unchanged.
``route`` is the only place that states this rule; ``moe_forward`` applies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, concat, embedding, gelu_ffn, matmul, softmax, take_along_last

__all__ = [
    "DispatchStats",
    "ExpertFFN",
    "ConfigError",
    "expert_capacity",
    "route",
    "moe_forward",
    "aux_load_balance_loss",
]


class ConfigError(ValueError):
    """Raised for invalid routing configuration (e.g. capacity_factor < 1)."""


@dataclass
class DispatchStats:
    """Per-batch routing summary.

    ``tokens_per_expert`` counts top-1 (first slot) assignments only, so it
    sums to ``total_tokens``.  ``mean_gate_prob`` stays a Tensor because the
    load-balancing loss differentiates through it.
    """

    tokens_per_expert: np.ndarray
    mean_gate_prob: Tensor
    dropped_tokens: int
    total_tokens: int

    @property
    def load_fractions(self) -> np.ndarray:
        return self.tokens_per_expert / max(self.total_tokens, 1)


class ExpertFFN:
    """Two-matrix feed-forward experts: GELU between w_in and w_out.

    With stacked [k, M, H] and [k, H, M] weights it runs k experts on a
    [k, C, M] buffer as one batched product, as each model MoE layer does;
    [M, H] and [H, M] weights are one expert, broadcast over any leading axes
    of its input; only perfbench's MoE-in-E curve and tests build those.  One
    call is one tape node.
    """

    def __init__(self, w_in: Tensor, w_out: Tensor):
        self.w_in = w_in
        self.w_out = w_out

    def __call__(self, x: Tensor) -> Tensor:
        return gelu_ffn(x, self.w_in, self.w_out)


def expert_capacity(n_tokens: int, n_experts: int, capacity_factor: float = 1.25) -> int:
    """ceil(capacity_factor * 2 * T / E): room for both slots at perfect balance."""
    if not capacity_factor >= 1.0:
        raise ConfigError(f"capacity_factor must be >= 1, got {capacity_factor}")
    if n_tokens < 1 or n_experts < 1:
        raise ConfigError(f"need positive token and expert counts, got {n_tokens}, {n_experts}")
    return math.ceil(capacity_factor * 2.0 * n_tokens / n_experts)


def route(probs: Tensor, capacity: int) -> tuple[np.ndarray, Tensor, np.ndarray, np.ndarray]:
    """Top-min(2, E) routing of [T, E] gate probabilities under a per-expert capacity.

    Returns ``idx`` [T, K], K = min(2, E), each token's K most probable experts
    by two argmax passes (ties to the lower index); ``weights`` [T, K], their
    probabilities renormalized to sum to one (exactly 1.0 at E=1); ``slot``
    [T, K], each assignment's position in its expert's queue, which is served
    in (token, slot) order: earlier tokens first, and a token's first slot
    ahead of its second; and ``keep`` [T, K], ``slot < capacity``.  A kept
    assignment's slot is its buffer row.
    """
    n_experts = probs.shape[-1]
    first = probs.data.argmax(axis=-1)
    rest = probs.data.copy()
    rest[np.arange(first.size), first] = -np.inf
    idx = np.stack([first, rest.argmax(axis=-1)], axis=1)[:, : min(2, n_experts)]
    raw = take_along_last(probs, idx)
    weights = raw / raw.sum(axis=-1, keepdims=True)

    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_e = flat[order]
    starts = np.searchsorted(sorted_e, np.arange(n_experts), side="left")
    slot = np.empty(flat.size, dtype=np.intp)
    slot[order] = np.arange(flat.size) - starts[sorted_e]
    slot = slot.reshape(idx.shape)
    return idx, weights, slot < capacity, slot


def moe_forward(
    tokens: Tensor,
    experts: Sequence[Callable[[Tensor], Tensor]],
    gate_weights: Tensor,
    capacity_factor: float = 1.25,
) -> tuple[Tensor, DispatchStats]:
    """Dispatch a [T, M] batch of token activations through ``route``.

    Returns the combined expert outputs and routing statistics.  Each token
    holds min(2, E) assignments, the columns of ``route``'s ``idx``.  Tokens
    whose slots were all dropped pass through unchanged; tokens that kept one
    of two slots contribute that slot's weighted output alone (no
    renormalization after a capacity drop).

    E is the gate's column count.  The callables in ``experts`` split the E
    experts into equal consecutive blocks of k = E / len(experts): one callable
    over stacked weights runs them all (the model, ``simulate_sharded``); E
    callables run one each (only perfbench's MoE-in-E curve and tests).  Each
    callable gets its block's [k, C, M] buffer, C = min(max(capacity, 2), T):
    per expert its kept tokens in slot order, then padding rows that are never
    combined, and returns [k, C, M].  Buffer shapes depend only on (T, E,
    capacity_factor) and a kept token's slot only on earlier tokens, so
    position i's output is bit-stable under perturbations of later tokens.
    """
    if tokens.ndim != 2:
        raise ConfigError(f"tokens must be [T, M], got shape {tokens.shape}")
    n_tokens, d_model = tokens.shape
    n_experts = gate_weights.shape[-1]
    if gate_weights.shape != (d_model, n_experts) or not experts or n_experts % len(experts):
        raise ConfigError(
            f"gate weights shape {gate_weights.shape} does not fit d_model={d_model} "
            f"and {len(experts)} equal blocks of experts"
        )
    block = n_experts // len(experts)
    capacity = expert_capacity(n_tokens, n_experts, capacity_factor)
    probs = softmax(matmul(tokens, gate_weights), axis=-1)
    idx, weights, keep, slot = route(probs, capacity)

    # T rows suffice (no expert holds a token twice); two at least, because a one-row
    # product takes BLAS's matrix-vector path, whose sums differ in the last bit.
    rows = min(max(capacity, 2), n_tokens)
    source = np.zeros((n_experts, rows), dtype=np.intp)  # padding rows repeat token 0
    source[idx[keep], slot[keep]] = np.nonzero(keep)[0]
    buffers = (embedding(tokens, source[j * block : (j + 1) * block]) for j in range(len(experts)))
    outputs = concat([expert(x) for expert, x in zip(experts, buffers)])
    picked = embedding(outputs.reshape((n_experts * rows, d_model)), np.where(keep, idx * rows + slot, 0))
    out = (picked * (weights * keep).reshape(idx.shape + (1,))).sum(axis=1)
    kept_any = keep.any(axis=1)
    if not kept_any.all():
        out = out + tokens * (~kept_any).astype(np.float64)[:, None]

    stats = DispatchStats(
        tokens_per_expert=np.bincount(idx[:, 0], minlength=n_experts).astype(np.int64),
        mean_gate_prob=probs.mean(axis=0),
        dropped_tokens=int(n_tokens - kept_any.sum()),
        total_tokens=n_tokens,
    )
    return out, stats


def aux_load_balance_loss(stats: DispatchStats) -> Tensor:
    """E * sum_e f_e * m_e: 1.0 at perfect balance, E when one expert wins all.

    f_e (the top-1 load fraction) enters as a constant; gradients flow only
    through the mean gate probabilities m_e.
    """
    n_experts = stats.tokens_per_expert.shape[0]
    return (stats.mean_gate_prob * stats.load_fractions).sum() * float(n_experts)
