"""Decoder-only transformer with mixture-of-experts feed-forward layers.

With ``n_experts > 1`` every odd-indexed layer replaces its feed-forward
sublayer by a top-2 routed expert mixture; even layers keep a dense GEGLU
feed-forward.  With ``n_experts == 1`` the stack is fully dense (GEGLU
everywhere).  Attention uses a learned per-head relative-position bias over
log-spaced distance buckets, and the output projection is tied to the input
embedding.

``param_shapes`` is the one parameter layout: it names every weight and
gives its shape.  ``build`` initializes from it, the model holds a name ->
tensor dict in its order, and ``count_params`` sums it.  Parameter
accounting deliberately excludes the embedding table, counts activated
parameters per token (two experts per MoE layer), and derives FLOPs/token
as 2 * activated-params / 1e9 GFLOPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .moe import ConfigError, DispatchStats, ExpertFFN, aux_load_balance_loss, moe_forward
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "TransformerLM",
    "build",
    "param_shapes",
    "count_params",
    "flops_per_token",
    "relative_buckets",
    "attention_with_relative_bias",
    "geglu_ffn",
    "reduce_to_single_expert",
]

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


def relative_buckets(seq_len: int, n_buckets: int) -> np.ndarray:
    """Bucket ids for each (query, key) offset i - j on the causal side.

    Half the buckets hold exact small offsets; the rest are log-spaced out to
    ``_MAX_REL_DISTANCE``.  Depends only on i - j, so every diagonal is constant.
    """
    if n_buckets < 2:
        raise ConfigError(f"n_buckets must be >= 2, got {n_buckets}")
    dist = np.arange(seq_len)
    n_exact = max(n_buckets // 2, 1)
    scale = (n_buckets - n_exact) / math.log(max(_MAX_REL_DISTANCE / n_exact, 2.0))
    logged = n_exact + np.floor(np.log(np.maximum(dist, 1) / n_exact) * scale).astype(np.int64)
    bucket = np.where(dist < n_exact, dist, np.minimum(logged, n_buckets - 1)).astype(np.intp)
    return bucket[np.clip(dist[:, None] - dist[None, :], 0, None)]


def attention_with_relative_bias(q: Tensor, k: Tensor, v: Tensor, bias_table: Tensor) -> Tensor:
    """Causal multi-head attention with an additive relative-position bias.

    ``q``, ``k``, ``v`` are [..., S, n_heads * d_head]; ``bias_table`` is
    [n_heads, n_buckets], and its rows set the head count.  Masked (future)
    positions receive a -1e30 additive score, which underflows to an
    exactly-zero attention weight, so causality is exact rather than
    approximate.  One tape node (``T.causal_attention``).
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise T.ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    return T.causal_attention(q, k, v, bias_table, relative_buckets(q.shape[-2], bias_table.shape[1]))


def geglu_ffn(x: Tensor, wa: Tensor, wb: Tensor, wout: Tensor) -> Tensor:
    """Gated-GELU feed-forward: (GELU(x @ wa) * (x @ wb)) @ wout, as one tape node."""
    return T.gelu_ffn(x, wa, wout, gate=wb)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in ``params()`` and initialization order.

    The embedding comes first and the final norm scale last.  Each layer holds
    attention, two norm scales and a bias table, then a gate and the stacked
    expert weights, [E, M, H] and [E, H, M] (MoE layers), or the three GEGLU
    matrices (dense layers).
    """
    cfg = config
    d, ff, a = cfg.d_model, cfg.d_ff, cfg.n_heads * cfg.d_head  # a: attention width
    shapes = {"embed": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        shapes |= {p + "wq": (d, a), p + "wk": (d, a), p + "wv": (d, a), p + "wo": (a, d)}
        shapes |= {p + "norm_attn": (d,), p + "norm_ffn": (d,)}
        shapes[p + "bias_table"] = (cfg.n_heads, cfg.rel_pos_buckets)
        if cfg.is_moe_layer(i):
            shapes[p + "gate"] = (d, cfg.n_experts)
            shapes |= {p + "experts.w_in": (cfg.n_experts, d, ff), p + "experts.w_out": (cfg.n_experts, ff, d)}
        else:
            shapes |= {p + "wa": (d, ff), p + "wb": (d, ff), p + "wout": (ff, d)}
    shapes["norm_final"] = (d,)
    return shapes


class TransformerLM:
    """The assembled language model over the named tensors ``param_shapes`` lays out."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self._params = params

    def params(self) -> dict[str, Tensor]:
        """Named parameter tensors in a fixed, deterministic order."""
        return dict(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
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
        p = self._params
        x = T.embedding(p["embed"], ids)

        aux_terms: list[Tensor] = []
        stats_list: list[DispatchStats] = []
        for i in range(cfg.n_layers):
            layer = f"layer{i}"
            h = T.rms_norm(x, p[f"{layer}.norm_attn"])
            q, k, v = (T.matmul(h, p[f"{layer}.{w}"]) for w in ("wq", "wk", "wv"))
            attended = attention_with_relative_bias(q, k, v, p[f"{layer}.bias_table"])
            x = x + T.matmul(attended, p[f"{layer}.wo"])

            h2 = T.rms_norm(x, p[f"{layer}.norm_ffn"])
            gate = p.get(f"{layer}.gate")  # an MoE layer, with one expert per gate column
            if gate is not None:
                experts = [ExpertFFN(p[f"{layer}.experts.w_in"], p[f"{layer}.experts.w_out"])]
                flat = h2.reshape((batch * seq, cfg.d_model))
                routed, stats = moe_forward(flat, experts, gate, cfg.capacity_factor)
                x = x + routed.reshape((batch, seq, cfg.d_model))
                aux_terms.append(aux_load_balance_loss(stats))
                stats_list.append(stats)
            else:
                x = x + geglu_ffn(h2, p[f"{layer}.wa"], p[f"{layer}.wb"], p[f"{layer}.wout"])

        x = T.rms_norm(x, p["norm_final"])
        logits = T.matmul(x, p["embed"].transpose((1, 0)))
        if aux_terms:
            aux = sum(aux_terms[1:], aux_terms[0]) * (1.0 / len(aux_terms))
        else:
            aux = Tensor(0.0)
        return logits, aux, stats_list


def build(config: ModelConfig, seed: int) -> TransformerLM:
    """Deterministically initialize a model: scaled normals, variance 1/fan_in.

    Walks ``param_shapes`` in order.  The fan-in of a weight is its first
    axis (a slice's first axis for stacked experts), except the embedding's,
    which is ``d_model``.  Stacked experts draw expert by expert, each its
    ``w_in`` slice then its ``w_out`` slice.  Relative-bias tables start at
    zero (plain attention) and norm scales at one; neither draws.  The same
    (config, seed) pair always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)
    data: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        kind = name.rpartition(".")[2]
        if name in data:
            continue  # a stacked w_out, drawn together with its w_in
        if kind.startswith("norm"):
            data[name] = np.ones(shape)
        elif kind == "bias_table":
            data[name] = np.zeros(shape)
        elif ".experts." in name:
            pair = [name, name.replace("w_in", "w_out")]
            data |= {n: np.empty(shapes[n]) for n in pair}
            for e, n in itertools.product(range(shape[0]), pair):
                data[n][e] = rng.normal(0.0, 1.0 / math.sqrt(shapes[n][1]), size=shapes[n][1:])
        else:
            fan_in = shape[1] if name == "embed" else shape[0]
            data[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)
    return TransformerLM(config, {name: Tensor(data[name], requires_grad=True) for name in shapes})


def count_params(config: ModelConfig) -> tuple[int, int]:
    """(total, activated-per-token) parameter counts, excluding the embedding.

    Sums ``param_shapes``.  A token activates two of the E stacked experts
    per MoE layer, so the activated count takes two slices of each.
    """
    total = activated = 0
    for name, shape in param_shapes(config).items():
        if name == "embed":
            continue
        size = math.prod(shape)
        total += size
        activated += 2 * math.prod(shape[1:]) if ".experts." in name else size
    return total, activated


def flops_per_token(config: ModelConfig) -> float:
    """GFLOPs per token as 2 * activated parameters / 1e9.

    Counts one multiply-add for each parameter of ``count_params``'s activated
    count: attention projections, norm scales, relative-bias tables, dense
    GEGLU matrices, each MoE gate and two experts per MoE layer (one at E=1).
    Not counted: the embedding lookup and the tied-embedding logit product,
    the attention-score and weighted-sum products, which grow with sequence
    length, and the capacity buffers' padding rows (each expert runs on all C
    rows of its buffer, E * C / T rows per token against the 2 counted here).
    """
    return 2.0 * count_params(config)[1] / 1e9


def reduce_to_single_expert(model: TransformerLM) -> TransformerLM:
    """Single-expert view of a model: each MoE layer keeps only expert 0.

    Parameter tensors other than the experts are shared with the original
    model.  Each stacked expert weight becomes a new Tensor over a view of
    expert 0's slice, so it reads the original values but gradients through
    the view do not reach the original experts.  The gate collapses to one
    column (whose value is irrelevant: a one-way softmax is exactly 1).
    With all experts of a layer holding identical parameters, this view
    computes the same function as the original, since the top-2 combine is a
    convex combination of equal outputs.
    """
    kept: dict[str, Tensor] = {}
    for name, tensor in model.params().items():
        if name.endswith(".gate"):
            kept[name] = Tensor(np.zeros((tensor.shape[0], 1)))
        else:
            kept[name] = Tensor(tensor.data[:1]) if ".experts." in name else tensor
    return TransformerLM(model.config, kept)
