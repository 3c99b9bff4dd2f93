"""Top-2 expert routing with capacity limits and the load-balancing loss.

Every token picks its two highest-probability experts under a learned linear
gate.  Each expert accepts at most ``capacity`` assignments per batch; an
assignment that finds its expert full is dropped without renormalizing the
surviving slot.  A token that loses both slots passes through unchanged.
``route`` is the only place that states this rule; ``moe_forward`` applies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, gelu, matmul, softmax, take_along_last

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
    """Plain two-matrix feed-forward expert: GELU between w_in and w_out."""

    def __init__(self, w_in: Tensor, w_out: Tensor):
        self.w_in = w_in
        self.w_out = w_out

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(gelu(matmul(x, self.w_in)), self.w_out)


def expert_capacity(n_tokens: int, n_experts: int, capacity_factor: float = 1.25) -> int:
    """ceil(capacity_factor * 2 * T / E): room for both slots at perfect balance."""
    if capacity_factor < 1.0:
        raise ConfigError(f"capacity_factor must be >= 1, got {capacity_factor}")
    if n_tokens < 1 or n_experts < 1:
        raise ConfigError(f"need positive token and expert counts, got {n_tokens}, {n_experts}")
    return math.ceil(capacity_factor * 2.0 * n_tokens / n_experts)


def route(probs: Tensor, capacity: int) -> tuple[np.ndarray, Tensor, np.ndarray]:
    """Top-2 routing of [T, E] gate probabilities under a per-expert capacity.

    Returns ``idx`` [T, 2], each token's two most probable experts (ties to
    the lower index); ``weights`` [T, 2], their probabilities renormalized to
    sum to one; and ``keep`` [T, 2], the assignments that fit under
    ``capacity``, consumed in (token, slot) order: earlier tokens first, and a
    token's first slot ahead of its second.  A single-expert gate routes both
    slots to expert 0 with weights (1, 0) and never keeps the second slot.
    """
    n_experts = probs.shape[-1]
    if n_experts == 1:
        idx = np.zeros((probs.shape[0], 2), dtype=np.intp)
        weights = take_along_last(probs, idx) * np.array([[1.0, 0.0]])
    else:
        idx = np.argsort(-probs.data, axis=-1, kind="stable")[:, :2]
        raw = take_along_last(probs, idx)
        weights = raw / raw.sum(axis=-1, keepdims=True)

    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_e = flat[order]
    starts = np.searchsorted(sorted_e, np.arange(n_experts), side="left")
    keep = np.empty(flat.size, dtype=bool)
    keep[order] = np.arange(flat.size) - starts[sorted_e] < capacity
    keep = keep.reshape(idx.shape)
    if n_experts == 1:
        keep[:, 1] = False
    return idx, weights, keep


def moe_forward(
    tokens: Tensor,
    experts: Sequence[Callable[[Tensor], Tensor]],
    gate_weights: Tensor,
    capacity_factor: float = 1.25,
) -> tuple[Tensor, DispatchStats]:
    """Dispatch a [T, M] batch of token activations through top-2 routing.

    Returns the combined expert outputs and routing statistics.  Tokens whose
    surviving slots were all dropped pass through unchanged; tokens that kept
    one slot contribute that slot's weighted output alone (no renormalization
    after a capacity drop).

    Combination is mask-based: every expert runs over the full batch and each
    token's per-expert weight (zero for non-selected or dropped slots) scales
    the result.  Array shapes therefore never depend on routing decisions,
    which keeps position i's output bit-stable under perturbations of later
    tokens, and zero weights still yield exactly-zero expert gradients.
    """
    if tokens.ndim != 2:
        raise ConfigError(f"tokens must be [T, M], got shape {tokens.shape}")
    n_tokens = tokens.shape[0]
    n_experts = len(experts)
    if gate_weights.shape != (tokens.shape[1], n_experts):
        raise ConfigError(
            f"gate weights shape {gate_weights.shape} does not match "
            f"(d_model={tokens.shape[1]}, n_experts={n_experts})"
        )
    probs = softmax(matmul(tokens, gate_weights), axis=-1)
    idx, weights, keep = route(probs, expert_capacity(n_tokens, n_experts, capacity_factor))

    terms: list[Tensor] = []
    for e in range(n_experts):
        mask = ((idx == e) & keep).astype(np.float64)
        if mask.any():
            per_token = (weights * mask).sum(axis=-1, keepdims=True)
            terms.append(experts[e](tokens) * per_token)
    kept_any = keep.any(axis=1)
    if not kept_any.all():
        terms.append(tokens * (~kept_any).astype(np.float64)[:, None])
    # Never empty: capacity is at least 1, so the first (token, slot) is kept.
    out = sum(terms[1:], terms[0])

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
