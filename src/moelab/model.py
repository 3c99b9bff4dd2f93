"""Decoder-only transformer with mixture-of-experts feed-forward layers.

With ``n_experts > 1`` every odd-indexed layer replaces its feed-forward
sublayer by a top-2 routed expert mixture; even layers keep a dense GEGLU
feed-forward.  With ``n_experts == 1`` the stack is fully dense (GEGLU
everywhere).  Attention uses a learned per-head relative-position bias over
log-spaced distance buckets, and the output projection is tied to the input
embedding.

Parameter accounting deliberately excludes the embedding table, counts
activated parameters per token (two experts per MoE layer), and derives
FLOPs/token as 2 * activated-params / 1e9 GFLOPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .moe import ConfigError, DispatchStats, ExpertFFN, aux_load_balance_loss, moe_forward
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "TransformerLM",
    "build",
    "count_params",
    "flops_per_token",
    "relative_buckets",
    "attention_with_relative_bias",
    "geglu_ffn",
    "rmsnorm",
    "reduce_to_single_expert",
]

_MASK_FILL = -1e30  # finite, but exp(-1e30 - max) underflows to exactly 0.0
_NORM_EPS = 1e-6
_MAX_REL_DISTANCE = 128


@dataclass
class ModelConfig:
    """Architecture hyperparameters.  ``n_experts == 1`` means fully dense."""

    n_layers: int
    d_model: int
    d_ff: int
    n_heads: int
    d_head: int
    n_experts: int = 1
    vocab_size: int = 259
    seq_len: int = 128
    batch_size: int = 8
    capacity_factor: float = 1.25
    rel_pos_buckets: int = 32

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.type == "int"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.n_experts > 1 and self.n_layers % 2 != 0:
            raise ConfigError(
                f"n_layers must be even when n_experts > 1, got n_layers={self.n_layers}"
            )
        factor = self.capacity_factor
        if isinstance(factor, bool) or not isinstance(factor, (int, float)) or not 1 <= factor < math.inf:
            raise ConfigError(f"capacity_factor must be a finite number >= 1, got {factor!r}")
        if self.rel_pos_buckets < 2:
            raise ConfigError(f"rel_pos_buckets must be >= 2, got {self.rel_pos_buckets}")

    def is_moe_layer(self, layer_index: int) -> bool:
        return self.n_experts > 1 and layer_index % 2 == 1


# Parameters every block holds, in ``params()`` order; the FFN fields follow.
_SHARED_FIELDS = ("wq", "wk", "wv", "wo", "norm_attn", "norm_ffn", "bias_table")
_DENSE_FIELDS = ("wa", "wb", "wout")


@dataclass
class Block:
    """One transformer layer: attention plus either a dense or MoE FFN."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    norm_attn: Tensor
    norm_ffn: Tensor
    bias_table: Tensor
    # dense path
    wa: Tensor | None = None
    wb: Tensor | None = None
    wout: Tensor | None = None
    # moe path
    experts: list[ExpertFFN] = field(default_factory=list)
    gate: Tensor | None = None

    @property
    def is_moe(self) -> bool:
        return self.gate is not None


def relative_buckets(seq_len: int, n_buckets: int) -> np.ndarray:
    """Bucket ids for each (query, key) offset i - j on the causal side.

    Half the buckets hold exact small offsets; the rest are log-spaced out to
    ``_MAX_REL_DISTANCE``.  Depends only on i - j, so every diagonal is constant.
    """
    if n_buckets < 2:
        raise ConfigError(f"n_buckets must be >= 2, got {n_buckets}")
    pos = np.arange(seq_len)
    dist = np.clip(pos[:, None] - pos[None, :], 0, None)
    n_exact = max(n_buckets // 2, 1)
    scale = (n_buckets - n_exact) / math.log(max(_MAX_REL_DISTANCE / n_exact, 2.0))
    logged = n_exact + np.floor(np.log(np.maximum(dist, 1) / n_exact) * scale).astype(np.int64)
    bucket = np.where(dist < n_exact, dist, np.minimum(logged, n_buckets - 1))
    return bucket.astype(np.intp)


def attention_with_relative_bias(q: Tensor, k: Tensor, v: Tensor, bias_table: Tensor) -> Tensor:
    """Causal multi-head attention with an additive relative-position bias.

    ``q``, ``k``, ``v`` are [..., n_heads, S, d_head]; ``bias_table`` is
    [n_heads, n_buckets].  Masked (future) positions receive a -1e30 additive
    score, which underflows to an exactly-zero attention weight, so causality
    is exact rather than approximate.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise T.ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    n_heads, seq_len, d_head = q.shape[-3], q.shape[-2], q.shape[-1]
    if bias_table.shape[0] != n_heads:
        raise T.ShapeError(f"bias table {bias_table.shape} does not match n_heads={n_heads}")

    scores = T.matmul(q, k.swap_last2()) * (1.0 / math.sqrt(d_head))
    buckets = relative_buckets(seq_len, bias_table.shape[1])
    rows = T.embedding(bias_table.transpose((1, 0)), buckets.reshape(-1))
    bias = rows.transpose((1, 0)).reshape((n_heads, seq_len, seq_len))
    mask = np.where(np.tril(np.ones((seq_len, seq_len), dtype=bool)), 0.0, _MASK_FILL)
    weights = T.softmax(scores + bias + Tensor(mask), axis=-1)
    return T.matmul(weights, v)


def geglu_ffn(x: Tensor, wa: Tensor, wb: Tensor, wout: Tensor) -> Tensor:
    """Gated-GELU feed-forward: (GELU(x @ wa) * (x @ wb)) @ wout."""
    return T.matmul(T.gelu(T.matmul(x, wa)) * T.matmul(x, wb), wout)


def rmsnorm(x: Tensor, scale: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned scale."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * (ms + _NORM_EPS) ** -0.5 * scale


class TransformerLM:
    """The assembled language model: embedding, blocks, final norm, tied output."""

    def __init__(self, config: ModelConfig, embed: Tensor, blocks: list[Block], norm_final: Tensor):
        self.config = config
        self.embed = embed
        self.blocks = blocks
        self.norm_final = norm_final

    def params(self) -> dict[str, Tensor]:
        """Named parameter tensors in a fixed, deterministic order."""
        out: dict[str, Tensor] = {"embed": self.embed}
        for i, blk in enumerate(self.blocks):
            p = f"layer{i}"
            for name in _SHARED_FIELDS:
                out[f"{p}.{name}"] = getattr(blk, name)
            if blk.is_moe:
                out[f"{p}.gate"] = blk.gate
                for e, expert in enumerate(blk.experts):
                    out[f"{p}.expert{e}.w_in"] = expert.w_in
                    out[f"{p}.expert{e}.w_out"] = expert.w_out
            else:
                for name in _DENSE_FIELDS:
                    out[f"{p}.{name}"] = getattr(blk, name)
        out["norm_final"] = self.norm_final
        return out

    def zero_grad(self) -> None:
        for p in self.params().values():
            p.zero_grad()

    def forward(self, token_ids: np.ndarray) -> tuple[Tensor, Tensor, list[DispatchStats]]:
        """Map [B, S] token ids to logits [B, S, vocab].

        Returns (logits, mean auxiliary load-balancing loss over MoE layers,
        per-MoE-layer dispatch stats).  For a dense model the auxiliary loss
        is a constant zero.
        """
        cfg = self.config
        ids = np.asarray(token_ids)
        if ids.ndim != 2:
            raise ConfigError(f"token_ids must be [B, S], got shape {ids.shape}")
        if ids.shape[1] > cfg.seq_len:
            raise ConfigError(f"sequence length {ids.shape[1]} exceeds seq_len={cfg.seq_len}")
        batch, seq = ids.shape
        x = T.embedding(self.embed, ids)

        aux_terms: list[Tensor] = []
        stats_list: list[DispatchStats] = []
        for blk in self.blocks:
            h = rmsnorm(x, blk.norm_attn)
            q = self._heads(T.matmul(h, blk.wq), batch, seq)
            k = self._heads(T.matmul(h, blk.wk), batch, seq)
            v = self._heads(T.matmul(h, blk.wv), batch, seq)
            attended = attention_with_relative_bias(q, k, v, blk.bias_table)
            merged = attended.transpose((0, 2, 1, 3)).reshape((batch, seq, cfg.n_heads * cfg.d_head))
            x = x + T.matmul(merged, blk.wo)

            h2 = rmsnorm(x, blk.norm_ffn)
            if blk.is_moe:
                flat = h2.reshape((batch * seq, cfg.d_model))
                routed, stats = moe_forward(flat, blk.experts, blk.gate, cfg.capacity_factor)
                x = x + routed.reshape((batch, seq, cfg.d_model))
                aux_terms.append(aux_load_balance_loss(stats))
                stats_list.append(stats)
            else:
                x = x + geglu_ffn(h2, blk.wa, blk.wb, blk.wout)

        x = rmsnorm(x, self.norm_final)
        logits = T.matmul(x, self.embed.transpose((1, 0)))
        if aux_terms:
            aux = sum(aux_terms[1:], aux_terms[0]) * (1.0 / len(aux_terms))
        else:
            aux = Tensor(0.0)
        return logits, aux, stats_list

    def _heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        cfg = self.config
        return x.reshape((batch, seq, cfg.n_heads, cfg.d_head)).transpose((0, 2, 1, 3))


def _init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape), requires_grad=True)


def build(config: ModelConfig, seed: int) -> TransformerLM:
    """Deterministically initialize a model: scaled normals, variance 1/fan_in.

    Relative-bias tables start at zero (plain attention) and norm scales at
    one.  The same (config, seed) pair always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    cfg = config
    attn_width = cfg.n_heads * cfg.d_head
    embed = _init(rng, (cfg.vocab_size, cfg.d_model), cfg.d_model)
    blocks: list[Block] = []
    for layer in range(cfg.n_layers):
        blk = Block(
            wq=_init(rng, (cfg.d_model, attn_width), cfg.d_model),
            wk=_init(rng, (cfg.d_model, attn_width), cfg.d_model),
            wv=_init(rng, (cfg.d_model, attn_width), cfg.d_model),
            wo=_init(rng, (attn_width, cfg.d_model), attn_width),
            norm_attn=Tensor(np.ones(cfg.d_model), requires_grad=True),
            norm_ffn=Tensor(np.ones(cfg.d_model), requires_grad=True),
            bias_table=Tensor(np.zeros((cfg.n_heads, cfg.rel_pos_buckets)), requires_grad=True),
        )
        if cfg.is_moe_layer(layer):
            blk.gate = _init(rng, (cfg.d_model, cfg.n_experts), cfg.d_model)
            for _ in range(cfg.n_experts):
                blk.experts.append(
                    ExpertFFN(
                        w_in=_init(rng, (cfg.d_model, cfg.d_ff), cfg.d_model),
                        w_out=_init(rng, (cfg.d_ff, cfg.d_model), cfg.d_ff),
                    )
                )
        else:
            blk.wa = _init(rng, (cfg.d_model, cfg.d_ff), cfg.d_model)
            blk.wb = _init(rng, (cfg.d_model, cfg.d_ff), cfg.d_model)
            blk.wout = _init(rng, (cfg.d_ff, cfg.d_model), cfg.d_ff)
        blocks.append(blk)
    norm_final = Tensor(np.ones(cfg.d_model), requires_grad=True)
    return TransformerLM(cfg, embed, blocks, norm_final)


def count_params(config: ModelConfig) -> tuple[int, int]:
    """(total, activated-per-token) parameter counts, excluding the embedding.

    Matches exactly what ``build`` creates: per layer 4 * d_model * n_heads *
    d_head attention weights, dense GEGLU layers 3 * d_model * d_ff, experts
    2 * d_model * d_ff each plus a d_model * n_experts gate, two norm scales
    per layer plus a final one, and a per-layer bias table.  A token activates
    two experts per MoE layer.
    """
    cfg = config
    attn = 4 * cfg.d_model * cfg.n_heads * cfg.d_head
    norms = 2 * cfg.d_model
    bias = cfg.n_heads * cfg.rel_pos_buckets
    dense_ffn = 3 * cfg.d_model * cfg.d_ff
    expert = 2 * cfg.d_model * cfg.d_ff

    total = cfg.d_model  # final norm
    activated = cfg.d_model
    for layer in range(cfg.n_layers):
        shared = attn + norms + bias
        total += shared
        activated += shared
        if cfg.is_moe_layer(layer):
            gate = cfg.d_model * cfg.n_experts
            total += cfg.n_experts * expert + gate
            activated += 2 * expert + gate
        else:
            total += dense_ffn
            activated += dense_ffn
    return total, activated


def flops_per_token(config: ModelConfig) -> float:
    """Approximate GFLOPs per token: 2 * activated parameters / 1e9."""
    return 2.0 * count_params(config)[1] / 1e9


def reduce_to_single_expert(model: TransformerLM) -> TransformerLM:
    """Single-expert view of a model: each MoE layer keeps only expert 0.

    Parameter tensors are shared with the original model; the gate collapses
    to one column (whose value is irrelevant: a one-way softmax is exactly 1).
    With all experts of a layer holding identical parameters, this view
    computes the same function as the original, since the top-2 combine is a
    convex combination of equal outputs.
    """
    d_model = model.config.d_model
    blocks = [
        replace(blk, experts=blk.experts[:1], gate=Tensor(np.zeros((d_model, 1)))) if blk.is_moe else blk
        for blk in model.blocks
    ]
    return TransformerLM(model.config, model.embed, blocks, model.norm_final)
